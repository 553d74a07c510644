package granule

import (
	"errors"
	"math/rand"
	"testing"
)

// refTable is a map-backed reference for the granule table: absent
// entries are undelegated, and every rule is restated from the RMM
// granule state machine independently of the chunked implementation.
type refTable struct {
	n uint64
	g map[uint64]granule
}

func newRefTable(size uint64) *refTable {
	return &refTable{n: size / Size, g: map[uint64]granule{}}
}

func (r *refTable) check(pa PA) error {
	switch {
	case uint64(pa)%Size != 0:
		return ErrUnaligned
	case uint64(pa)/Size >= r.n:
		return ErrOutOfRange
	}
	return nil
}

func (r *refTable) get(pa PA) granule { return r.g[uint64(pa)/Size] }

func (r *refTable) set(pa PA, g granule) {
	if g == (granule{}) {
		delete(r.g, uint64(pa)/Size)
		return
	}
	r.g[uint64(pa)/Size] = g
}

func (r *refTable) delegate(pa PA) error {
	if err := r.check(pa); err != nil {
		return err
	}
	switch r.get(pa).state {
	case Undelegated:
		r.set(pa, granule{state: Delegated})
		return nil
	case Delegated:
		return ErrDoubleDelegate
	}
	return ErrBadState
}

func (r *refTable) undelegate(pa PA) error {
	if err := r.check(pa); err != nil {
		return err
	}
	g := r.get(pa)
	if g.state != Delegated {
		return ErrBadState
	}
	if g.dirty {
		return ErrNotScrubbed
	}
	r.set(pa, granule{})
	return nil
}

func (r *refTable) claim(pa PA, to State, owner RealmID) error {
	if to < RD || to > Data {
		return ErrBadState
	}
	if err := r.check(pa); err != nil {
		return err
	}
	if r.get(pa).state != Delegated {
		return ErrBadState
	}
	r.set(pa, granule{state: to, owner: owner, dirty: true})
	return nil
}

func (r *refTable) release(pa PA, owner RealmID) error {
	if err := r.check(pa); err != nil {
		return err
	}
	g := r.get(pa)
	if g.state < RD || g.state > Data {
		return ErrBadState
	}
	if g.owner != owner {
		return ErrWrongOwner
	}
	r.set(pa, granule{state: Delegated})
	return nil
}

func (r *refTable) count(s State) uint64 {
	var n uint64
	for _, g := range r.g {
		if g.state == s {
			n++
		}
	}
	if s == Undelegated {
		n += r.n - uint64(len(r.g))
	}
	return n
}

// TestLazyTableMatchesReference drives the chunked table and the map
// reference through the same random operation stream — delegation
// protocol, resets and reads — over addresses that
// cluster in a low prefix (the bump allocator's pattern), scatter to
// stray high granules, and stray out of range or off alignment.
func TestLazyTableMatchesReference(t *testing.T) {
	const size = 256 << 20 // 65536 granules: 64 chunks
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, ref := NewTable(size), newRefTable(size)

		addr := func() PA {
			switch k := rng.Intn(20); {
			case k < 12:
				return PA(rng.Intn(64) * Size) // allocation prefix
			case k < 17:
				return PA(rng.Intn(size/Size) * Size) // stray, anywhere
			case k < 18:
				return PA(size + rng.Intn(8)*Size) // just past the end
			case k < 19:
				return PA(1<<40 + rng.Intn(8)*Size) // far out of range
			default:
				return PA(rng.Intn(size)) | 1 // unaligned
			}
		}
		sameErr := func(step int, op string, got, want error) {
			t.Helper()
			if !errors.Is(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d step %d %s: err %v, reference %v", seed, step, op, got, want)
			}
		}

		for step := 0; step < 4000; step++ {
			pa := addr()
			owner := RealmID(1 + rng.Intn(3))
			switch k := rng.Intn(100); {
			case k < 30:
				sameErr(step, "delegate", tab.Delegate(pa), ref.delegate(pa))
			case k < 40:
				sameErr(step, "undelegate", tab.Undelegate(pa), ref.undelegate(pa))
			case k < 60:
				to := State(rng.Intn(7)) // includes invalid targets
				sameErr(step, "claim", tab.Claim(pa, to, owner), ref.claim(pa, to, owner))
			case k < 75:
				sameErr(step, "release", tab.Release(pa, owner), ref.release(pa, owner))
			case k < 77:
				tab.Reset(size)
				ref = newRefTable(size)
			default:
				st, err := tab.State(pa)
				sameErr(step, "state", err, ref.check(pa))
				own, _ := tab.Owner(pa)
				if err == nil {
					if g := ref.get(pa); st != g.state || own != g.owner {
						t.Fatalf("seed %d step %d: granule %#x = (%v, %d), reference (%v, %d)",
							seed, step, pa, st, own, g.state, g.owner)
					}
				}
				raw := pa &^ (Size - 1)
				g, inRange := ref.get(raw), ref.check(raw) == nil
				if got, want := tab.HostAccessible(pa), inRange && g.state == Undelegated; got != want {
					t.Fatalf("seed %d step %d: HostAccessible(%#x) = %v, want %v", seed, step, pa, got, want)
				}
				want := inRange && (g.state == Undelegated || g.state == Data && g.owner == owner)
				if got := tab.RealmAccessible(pa, owner); got != want {
					t.Fatalf("seed %d step %d: RealmAccessible(%#x) = %v, want %v", seed, step, pa, got, want)
				}
			}
			for s := Undelegated; s <= Data; s++ {
				if got, want := tab.CountIn(s), ref.count(s); got != want {
					t.Fatalf("seed %d step %d: CountIn(%v) = %d, reference %d", seed, step, s, got, want)
				}
			}
		}
		// A full sweep at the end: every granule agrees.
		for i := uint64(0); i < size/Size; i++ {
			pa := PA(i * Size)
			st, _ := tab.State(pa)
			own, _ := tab.Owner(pa)
			if g := ref.get(pa); st != g.state || own != g.owner {
				t.Fatalf("seed %d: final granule %#x = (%v, %d), reference (%v, %d)", seed, pa, st, own, g.state, g.owner)
			}
		}
	}
}

// TestLazyTableAllocatesOnMutation: building a table allocates no
// granule storage; reads and rejected operations leave it untouched;
// the first successful mutation allocates exactly one chunk; Reset
// keeps that chunk and scrubs it.
func TestLazyTableAllocatesOnMutation(t *testing.T) {
	tab := NewTable(16 << 30)
	allocated := func() int {
		n := 0
		for _, c := range tab.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	stray := PA(7 << 30)
	tab.State(stray)
	tab.HostAccessible(stray)
	if err := tab.Undelegate(stray); !errors.Is(err, ErrBadState) {
		t.Fatalf("undelegate of undelegated granule: %v", err)
	}
	if n := allocated(); n != 0 || len(tab.touched) != 0 {
		t.Fatalf("reads and a rejected op allocated %d chunks, touched %v", n, tab.touched)
	}
	if err := tab.Delegate(stray); err != nil {
		t.Fatal(err)
	}
	if n := allocated(); n != 1 || len(tab.touched) != 1 {
		t.Fatalf("one delegate: %d chunks, touched %v", n, tab.touched)
	}
	tab.Reset(16 << 30)
	if n := allocated(); n != 1 || len(tab.touched) != 0 {
		t.Fatalf("after reset: %d chunks, touched %v", n, tab.touched)
	}
	if st, _ := tab.State(stray); st != Undelegated {
		t.Fatalf("reset left %v", st)
	}
	if got := tab.CountIn(Undelegated); got != tab.Granules() {
		t.Fatalf("undelegated count %d of %d", got, tab.Granules())
	}
}
