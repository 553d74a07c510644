// Package granule models physical-memory ownership for confidential VMs:
// the granule protection table (GPT) through which hardware checks every
// access against the owning physical address space, and the delegation
// protocol by which the untrusted host donates memory to realm world.
//
// This is the Arm CCA view (RME granule protection checks, RMM granule
// states); Intel TDX's PAMT and AMD's RMP play the same role (§2.1).
package granule

import (
	"errors"
	"fmt"

	"coregap/internal/sim"
)

// Delegation-protocol counters: every successful state transition on
// the table, by operation. These are the paper's RMI granule churn made
// visible per trial.
var (
	cDelegate   = sim.DefineCounter("granule.delegates")
	cUndelegate = sim.DefineCounter("granule.undelegates")
	cClaim      = sim.DefineCounter("granule.claims")
	cRelease    = sim.DefineCounter("granule.releases")
)

// Size is the granule size in bytes (4 KiB, as on Arm).
const Size = 4096

// PA is a physical address.
type PA uint64

// Index reports the granule index containing pa.
func (pa PA) Index() uint64 { return uint64(pa) / Size }

// Aligned reports whether pa is granule-aligned.
func (pa PA) Aligned() bool { return uint64(pa)%Size == 0 }

// IPA is an intermediate physical address (guest physical).
type IPA uint64

// Aligned reports whether the IPA is granule-aligned.
func (ipa IPA) Aligned() bool { return uint64(ipa)%Size == 0 }

// RealmID identifies a realm (confidential VM) as the owner of granules.
// Zero means "no realm".
type RealmID uint32

// State is the lifecycle state of one granule, following the RMM
// specification's granule state machine.
type State uint8

// Granule states.
const (
	// Undelegated: normal-world memory, accessible to the host.
	Undelegated State = iota
	// Delegated: donated to realm world but not yet used; contents wiped.
	Delegated
	// RD: holds a realm descriptor.
	RD
	// REC: holds a realm execution context (vCPU state).
	REC
	// RTT: holds a stage-2 translation table.
	RTT
	// Data: mapped as protected realm data.
	Data
)

var stateNames = [...]string{"undelegated", "delegated", "rd", "rec", "rtt", "data"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Errors returned by the table operations. They model the RMI error codes
// the real RMM returns to a misbehaving (or malicious) host.
var (
	ErrUnaligned      = errors.New("granule: address not granule-aligned")
	ErrOutOfRange     = errors.New("granule: address outside physical memory")
	ErrBadState       = errors.New("granule: granule in wrong state for operation")
	ErrWrongOwner     = errors.New("granule: granule owned by another realm")
	ErrNotScrubbed    = errors.New("granule: undelegate of unscrubbed granule")
	ErrDoubleDelegate = errors.New("granule: already delegated")
)

type granule struct {
	state State
	owner RealmID
	dirty bool // held secret contents since last scrub
}

// chunkGranules is the number of granules per backing chunk (12 KiB of
// table state covering 4 MiB of physical memory).
const chunkGranules = 1 << 10

type chunk [chunkGranules]granule

// Table is the granule protection table for one machine's physical memory.
//
// The table covers whole-machine physical memory (millions of granules),
// but a run mutates a small bump-allocated prefix plus a few stray
// addresses. So the table is backed by fixed-size chunks allocated on
// first mutation: a granule in a chunk never written reads as
// Undelegated, and building a table costs one pointer per chunk instead
// of the whole granule array.
type Table struct {
	n      uint64   // granule count
	chunks []*chunk // nil until a granule in the chunk is mutated
	counts [6]uint64
	// touched lists the chunks mutated since the last Reset/Restore, in
	// first-touch order; Reset scrubs only these and keeps them
	// allocated for the next run.
	touched []uint32
	// eng, when bound, receives counters and trace events for state
	// transitions. The table stays usable unbound (tests build bare
	// tables); note() is then a nil check.
	eng *sim.Engine
}

// NewTable returns a table covering size bytes of physical memory, all
// initially undelegated (host-owned).
func NewTable(size uint64) *Table {
	t := &Table{}
	t.Reset(size)
	return t
}

// Reset returns every granule to Undelegated for a table covering size
// bytes. Chunks mutated since the last reset are scrubbed and kept when
// the size is unchanged (the common pooled-context case), so a reset
// table is observationally identical to NewTable(size) without
// reallocating.
func (t *Table) Reset(size uint64) {
	n := size / Size
	if n != t.n || t.chunks == nil {
		t.n = n
		t.chunks = make([]*chunk, (n+chunkGranules-1)/chunkGranules)
	} else {
		for _, c := range t.touched {
			clear(t.chunks[c][:])
		}
	}
	t.touched = t.touched[:0]
	t.counts = [6]uint64{}
	t.counts[Undelegated] = n
}

// Image is a copy of every chunk a table's mutations touched —
// everything a boot sequence changed — taken by Snapshot and written
// back by Restore. It is immutable once taken: both directions copy, so
// a cached image stays valid while the live table keeps mutating.
type Image struct {
	index  []uint32 // chunk indexes, parallel to chunks
	chunks []chunk
	counts [6]uint64
	size   uint64 // granule count of the source table
}

// Snapshot copies the table's touched chunks. Restoring the image later
// reproduces today's state exactly, without replaying the delegation
// protocol that built it (the boot-fork fast path).
func (t *Table) Snapshot() *Image {
	img := &Image{
		index:  append([]uint32(nil), t.touched...),
		chunks: make([]chunk, len(t.touched)),
		counts: t.counts,
		size:   t.n,
	}
	for i, c := range t.touched {
		img.chunks[i] = *t.chunks[c]
	}
	return img
}

// Restore overwrites the table's state with the image. The table must
// cover the same physical memory the image was taken from. No counters
// or trace events fire: Restore is state transplantation, not protocol;
// callers replaying a boot account for the skipped transitions
// themselves.
func (t *Table) Restore(img *Image) error {
	if t.n != img.size {
		return fmt.Errorf("granule: restore into table of %d granules, image from %d",
			t.n, img.size)
	}
	for _, c := range t.touched {
		clear(t.chunks[c][:])
	}
	t.touched = t.touched[:0]
	for i, c := range img.index {
		if t.chunks[c] == nil {
			t.chunks[c] = new(chunk)
		}
		*t.chunks[c] = img.chunks[i]
		t.touched = append(t.touched, c)
	}
	t.counts = img.counts
	return nil
}

// Bind attaches the engine whose counters and tracer receive this
// table's state transitions, returning t for construction chaining.
func (t *Table) Bind(eng *sim.Engine) *Table {
	t.eng = eng
	return t
}

// note records a successful transition in the bound engine's counters
// and trace.
func (t *Table) note(id sim.CounterID, name string, pa PA) {
	if t.eng == nil {
		return
	}
	t.eng.Count(id)
	t.eng.Trace().Emit(sim.TCGranule, name, sim.LaneGlobal, int64(pa))
}

// Granules reports the total granule count.
func (t *Table) Granules() uint64 { return t.n }

// CountIn reports how many granules are in state s.
func (t *Table) CountIn(s State) uint64 { return t.counts[s] }

func (t *Table) check(pa PA) error {
	if !pa.Aligned() {
		return ErrUnaligned
	}
	if pa.Index() >= t.n {
		return ErrOutOfRange
	}
	return nil
}

// peek reads the granule at pa; granules of untouched chunks read as
// the zero (Undelegated, unowned, clean) granule.
func (t *Table) peek(pa PA) (granule, error) {
	if err := t.check(pa); err != nil {
		return granule{}, err
	}
	idx := pa.Index()
	c := t.chunks[idx/chunkGranules]
	if c == nil {
		return granule{}, nil
	}
	return c[idx%chunkGranules], nil
}

// mut returns the granule at an already-checked pa for mutation,
// allocating its chunk on first touch. Operations validate through peek
// first, so a rejected operation never allocates or touches a chunk.
func (t *Table) mut(pa PA) *granule {
	idx := pa.Index()
	ci := idx / chunkGranules
	c := t.chunks[ci]
	if c == nil {
		c = new(chunk)
		t.chunks[ci] = c
	}
	if !t.isTouched(uint32(ci)) {
		t.touched = append(t.touched, uint32(ci))
	}
	return &c[idx%chunkGranules]
}

// isTouched reports whether chunk ci is on the touched list. The list
// holds a handful of chunks (the allocation prefix plus stray
// addresses), so a scan from the most recent entry is cheapest.
func (t *Table) isTouched(ci uint32) bool {
	for i := len(t.touched) - 1; i >= 0; i-- {
		if t.touched[i] == ci {
			return true
		}
	}
	return false
}

// State reports the state of the granule at pa.
func (t *Table) State(pa PA) (State, error) {
	g, err := t.peek(pa)
	if err != nil {
		return Undelegated, err
	}
	return g.state, nil
}

// Owner reports the realm owning the granule at pa (0 when none).
func (t *Table) Owner(pa PA) (RealmID, error) {
	g, err := t.peek(pa)
	if err != nil {
		return 0, err
	}
	return g.owner, nil
}

// transition moves the granule at pa from state from to state to and
// returns it for any further field updates.
func (t *Table) transition(pa PA, from, to State) *granule {
	g := t.mut(pa)
	t.counts[from]--
	g.state = to
	t.counts[to]++
	return g
}

// Delegate moves an undelegated granule into realm world
// (RMI_GRANULE_DELEGATE). The granule is scrubbed on entry.
func (t *Table) Delegate(pa PA) error {
	g, err := t.peek(pa)
	if err != nil {
		return err
	}
	if g.state == Delegated {
		return ErrDoubleDelegate
	}
	if g.state != Undelegated {
		return ErrBadState
	}
	t.transition(pa, g.state, Delegated).dirty = false
	t.note(cDelegate, "granule.delegate", pa)
	return nil
}

// Undelegate returns a delegated granule to the host
// (RMI_GRANULE_UNDELEGATE). A granule that held realm contents must have
// been scrubbed first; returning secret-bearing memory to the host would
// be an architectural leak.
func (t *Table) Undelegate(pa PA) error {
	g, err := t.peek(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	if g.dirty {
		return ErrNotScrubbed
	}
	t.transition(pa, g.state, Undelegated)
	t.note(cUndelegate, "granule.undelegate", pa)
	return nil
}

// Claim converts a delegated granule into one of the realm-internal
// states (RD, REC, RTT, Data) on behalf of owner.
func (t *Table) Claim(pa PA, to State, owner RealmID) error {
	if to != RD && to != REC && to != RTT && to != Data {
		return ErrBadState
	}
	g, err := t.peek(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	m := t.transition(pa, g.state, to)
	m.owner = owner
	m.dirty = true
	t.note(cClaim, "granule.claim", pa)
	return nil
}

// Release scrubs a realm-internal granule back to Delegated. Only the
// owning realm's teardown path may release it.
func (t *Table) Release(pa PA, owner RealmID) error {
	g, err := t.peek(pa)
	if err != nil {
		return err
	}
	switch g.state {
	case RD, REC, RTT, Data:
	default:
		return ErrBadState
	}
	if g.owner != owner {
		return ErrWrongOwner
	}
	m := t.transition(pa, g.state, Delegated)
	m.owner = 0
	m.dirty = false // release implies scrub
	t.note(cRelease, "granule.release", pa)
	return nil
}

// HostAccessible reports whether normal-world software may access pa.
// This is the granule protection check performed (by hardware) on every
// host access; a false return models an instruction-level fault.
func (t *Table) HostAccessible(pa PA) bool {
	g, err := t.peek(PA(uint64(pa) / Size * Size))
	if err != nil {
		return false
	}
	return g.state == Undelegated
}

// RealmAccessible reports whether realm r may access pa through its
// stage-2 tables (the granule must be realm-owned by r, or shared
// normal-world memory which the architecture maps as untrusted-shared).
func (t *Table) RealmAccessible(pa PA, r RealmID) bool {
	g, err := t.peek(PA(uint64(pa) / Size * Size))
	if err != nil {
		return false
	}
	switch g.state {
	case Data:
		return g.owner == r
	case Undelegated:
		return true // shared (non-confidential) memory
	default:
		return false
	}
}
