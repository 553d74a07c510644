package uarch

import (
	"math"
	"testing"

	"coregap/internal/sim"
)

// eagerCore is the reference the touch log must reproduce: a core whose
// Touch fills every structure entry by entry, at once, seeding structure
// k's fill with fillSeed(tag, k) from its one draw from the shared tag
// stream.
type eagerCore struct {
	bufs       [sharedKindsStart]*Buffer
	lastDomain DomainID
	switches   uint64
}

func newEagerCore() *eagerCore {
	e := &eagerCore{}
	for k := range e.bufs {
		e.bufs[k] = NewBuffer(StructKind(k), defaultSizes[StructKind(k)])
	}
	return e
}

func (e *eagerCore) touch(d DomainID, footprint, secretFrac float64, tagSrc *sim.Source) {
	if d != e.lastDomain {
		if e.lastDomain != DomainNone && d != DomainNone {
			e.switches++
		}
		e.lastDomain = d
	}
	if footprint <= 0 {
		return
	}
	if footprint > 1 {
		footprint = 1
	}
	tag := tagSrc.Uint64()
	for k, b := range e.bufs {
		n := int(footprint * float64(b.Cap()))
		if n == 0 {
			n = 1
		}
		eagerFill(b, d, n, secretFrac, fillSeed(tag, StructKind(k)))
	}
}

func (e *eagerCore) warmth(d DomainID) float64 {
	var w, total float64
	for _, kw := range warmthWeights {
		w += kw.weight * e.bufs[kw.kind].Occupancy(d)
		total += kw.weight
	}
	return w / total
}

func (e *eagerCore) flush(kinds []StructKind, costs FlushCosts) sim.Duration {
	var total sim.Duration
	for _, k := range kinds {
		e.bufs[k].Flush()
		total += costs.Of(k)
	}
	return total
}

var (
	testDomains = []DomainID{DomainNone, DomainHost, DomainMonitor, Guest(0), Guest(1)}
	// Footprints: none, negative, tiny (every structure's n floors to
	// 1), small and mid (the paper path's range), whole and clamped.
	testFootprints = []float64{0, -0.5, 1e-6, 0.002, 0.02, 0.08, 0.3, 0.7, 1, 1.6}
	testSecrets    = []float64{0, 0, 0.3, 1}
	mitigated      = []StructKind{BTB, RSB, StoreBuffer, FillBuffer, LoadPort, FPURegs, UopCache}
	// stranger trusts nobody else, so Residue(stranger) is every
	// non-empty entry in ring order.
	stranger = DomainID(50)
)

// TestTouchLogMatchesEagerFills is the touch log's differential
// property: a CoreState and an eager reference driven by the same random
// operations — touches of every footprint class, including bursts that
// overflow the log unread, interleaved with every reader and every
// mutator — agree on each aggregate, each materialized entry, the
// execution history and the position of the shared tag stream.
func TestTouchLogMatchesEagerFills(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 1729} {
		rng := sim.NewSource(seed)
		cs, ref := NewCoreState(), newEagerCore()
		src, refSrc := sim.NewSource(seed+100), sim.NewSource(seed+100)
		costs := DefaultFlushCosts()
		touch := func() {
			d := testDomains[rng.Intn(len(testDomains))]
			fp := testFootprints[rng.Intn(len(testFootprints))]
			sf := testSecrets[rng.Intn(len(testSecrets))]
			cs.Touch(d, fp, sf, src)
			ref.touch(d, fp, sf, refSrc)
		}
		for op := 0; op < 400; op++ {
			k := StructKind(rng.Intn(int(sharedKindsStart)))
			d := testDomains[rng.Intn(len(testDomains))]
			switch r := rng.Intn(100); {
			case r < 50:
				touch()
			case r < 54:
				// More touches than the log holds, none read.
				for i := touchLogLen + rng.Intn(2*touchLogLen); i > 0; i-- {
					touch()
				}
			case r < 64:
				got, want := cs.Warmth(d), ref.warmth(d)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: Warmth(%v) = %v, eager %v", seed, op, d, got, want)
				}
			case r < 76:
				b, rb := cs.Buffer(k), ref.bufs[k]
				if b.Len() != rb.Len() {
					t.Fatalf("seed %d op %d: %v Len %d, eager %d", seed, op, k, b.Len(), rb.Len())
				}
				for _, dd := range testDomains {
					if got, want := b.CountDomain(dd), rb.CountDomain(dd); got != want {
						t.Fatalf("seed %d op %d: %v CountDomain(%v) %d, eager %d", seed, op, k, dd, got, want)
					}
				}
			case r < 82:
				sameEntries(t, k, cs.Buffer(k), ref.bufs[k])
			case r < 86:
				e := Entry{Domain: d, Secret: rng.Intn(2) == 0, Tag: rng.Uint64()}
				if got, want := cs.Buffer(k).Insert(e), ref.bufs[k].Insert(e); got != want {
					t.Fatalf("seed %d op %d: %v Insert evicted %+v, eager %+v", seed, op, k, got, want)
				}
			case r < 90:
				cs.Buffer(k).FlushDomain(d)
				ref.bufs[k].FlushDomain(d)
			case r < 93:
				if got, want := cs.FlushMitigations(costs), ref.flush(mitigated, costs); got != want {
					t.Fatalf("seed %d op %d: FlushMitigations cost %v, eager %v", seed, op, got, want)
				}
			case r < 96:
				if got, want := cs.FlushAll(costs), ref.flush(PerCoreKinds(), costs); got != want {
					t.Fatalf("seed %d op %d: FlushAll cost %v, eager %v", seed, op, got, want)
				}
			case r < 98:
				res := cs.ResidueFor(stranger)
				for _, kk := range PerCoreKinds() {
					want := ref.bufs[kk].Residue(stranger)
					if len(res[kk]) != len(want) {
						t.Fatalf("seed %d op %d: ResidueFor %v has %d entries, eager %d", seed, op, kk, len(res[kk]), len(want))
					}
				}
			default:
				cs.Reset()
				for _, b := range ref.bufs {
					b.Reset()
				}
				ref.lastDomain, ref.switches = DomainNone, 0
			}
			if cs.LastDomain() != ref.lastDomain || cs.DomainSwitches() != ref.switches {
				t.Fatalf("seed %d op %d: last domain %v switches %d, eager %v %d",
					seed, op, cs.LastDomain(), cs.DomainSwitches(), ref.lastDomain, ref.switches)
			}
			if *src != *refSrc {
				t.Fatalf("seed %d op %d: tag stream position diverged", seed, op)
			}
		}
		for _, k := range PerCoreKinds() {
			sameEntries(t, k, cs.Buffer(k), ref.bufs[k])
		}
	}
}

// TestTouchDrawsOncePerFill pins Touch's draw contract: a touch with a
// footprint advances the shared tag stream by exactly one value, and a
// touch without one leaves it where it was.
func TestTouchDrawsOncePerFill(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(5)
	for i := 0; i < 3*touchLogLen; i++ {
		fp := testFootprints[i%len(testFootprints)]
		want := *src
		if fp > 0 {
			want.Uint64()
		}
		cs.Touch(testDomains[i%len(testDomains)], fp, testSecrets[i%len(testSecrets)], src)
		if *src != want {
			t.Fatalf("touch %d (footprint %v): tag stream not advanced by one draw if footprint > 0, else none", i, fp)
		}
	}
}

// sameEntries materializes both buffers and compares them slot by slot.
func sameEntries(t *testing.T, k StructKind, got, want *Buffer) {
	t.Helper()
	if g, w := got.Residue(stranger), want.Residue(stranger); len(g) != len(w) {
		t.Fatalf("%v: Residue has %d entries, eager %d", k, len(g), len(w))
	}
	if got.next != want.next || len(got.entries) != len(want.entries) {
		t.Fatalf("%v: ring next %d len %d, eager next %d len %d",
			k, got.next, len(got.entries), want.next, len(want.entries))
	}
	for i := range want.entries {
		if got.entries[i] != want.entries[i] {
			t.Fatalf("%v slot %d: %+v, eager %+v", k, i, got.entries[i], want.entries[i])
		}
	}
}

// TestWarmthDeterministic pins Warmth's float result: over random core
// states, repeated calls return the same bits, equal to the weighted sum
// taken in warmthWeights' declared order.
func TestWarmthDeterministic(t *testing.T) {
	rng := sim.NewSource(11)
	for trial := 0; trial < 200; trial++ {
		cs, src := NewCoreState(), sim.NewSource(uint64(trial))
		for i := 0; i < 12; i++ {
			d := testDomains[1+rng.Intn(len(testDomains)-1)]
			cs.Touch(d, rng.Float64(), 0, src)
		}
		d := Guest(0)
		var w, total float64
		for _, kw := range warmthWeights {
			w += kw.weight * cs.Buffer(kw.kind).Occupancy(d)
			total += kw.weight
		}
		want := math.Float64bits(w / total)
		for rep := 0; rep < 20; rep++ {
			if got := math.Float64bits(cs.Warmth(d)); got != want {
				t.Fatalf("state %d call %d: Warmth bits %#x, declared-order sum %#x", trial, rep, got, want)
			}
		}
	}
}

// touchRound is one steady-state stretch of the paper path on a core:
// guest slices and host interference with a Warmth read every 16 touches,
// then a stretch long enough to overflow the log unread.
func touchRound(cs *CoreState, src *sim.Source) {
	for i := 0; i < 48; i++ {
		if i%3 == 0 {
			cs.Touch(DomainHost, 0.08, 0, src)
		} else {
			cs.Touch(Guest(0), 0.3, 0.02, src)
		}
		if i%16 == 15 {
			cs.Warmth(Guest(0))
		}
	}
	for i := 0; i <= touchLogLen; i++ {
		cs.Touch(DomainMonitor, 0.02, 0, src)
	}
	cs.Warmth(Guest(0))
}

// TestZeroAllocTouch is the touch log's allocation gate: once each
// buffer's run slice has grown, logging, draining on a read and draining
// on overflow allocate nothing.
func TestZeroAllocTouch(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(1)
	for i := 0; i < 20; i++ {
		touchRound(cs, src)
	}
	if avg := testing.AllocsPerRun(100, func() { touchRound(cs, src) }); avg != 0 {
		t.Fatalf("%.2f allocs per round, want 0", avg)
	}
}

// BenchmarkCoreStateTouch measures one Touch of the paper path's mix,
// including its share of the drains that Warmth reads trigger.
func BenchmarkCoreStateTouch(b *testing.B) {
	cs, src := NewCoreState(), sim.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			cs.Touch(DomainHost, 0.08, 0, src)
		} else {
			cs.Touch(Guest(0), 0.3, 0.02, src)
		}
		if i%32 == 31 {
			cs.Warmth(Guest(0))
		}
	}
}
