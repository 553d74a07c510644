package uarch

import (
	"fmt"

	"coregap/internal/sim"
)

// Sizes of the modelled structures, in entries. Absolute sizes only shape
// warmth-decay curves and sampling probabilities; relative sizes follow a
// contemporary Arm server core (≈AmpereOne class).
var defaultSizes = map[StructKind]int{
	L1D:         1024, // 64 KiB / 64 B lines
	L1I:         1024,
	L2:          16384, // 1 MiB private L2
	DTLB:        256,
	ITLB:        256,
	BTB:         4096,
	RSB:         32,
	StoreBuffer: 56,
	FillBuffer:  16,
	LoadPort:    8,
	FPURegs:     64,
	UopCache:    1536,
	APICRegs:    16,
	Prefetch:    64,
}

// touchLogLen bounds the touches a core records before it folds them
// into its buffers unasked.
const touchLogLen = 64

// touch is one logged Touch: everything drain needs to replay it. tag
// is the one value Touch drew from the shared tag stream; drain derives
// every structure's fill seed from it.
type touch struct {
	tag        uint64
	footprint  float64 // clamped to (0, 1]
	secretFrac float64
	domain     DomainID
}

// CoreState is the per-core microarchitectural state.
type CoreState struct {
	bufs [sharedKindsStart]*Buffer
	// lastDomain is the domain that most recently executed; a change
	// means a same-core context switch between security domains occurred.
	lastDomain DomainID
	switches   uint64 // cross-domain same-core switches observed
	// log holds the touches not yet folded into bufs, oldest first.
	log  [touchLogLen]touch
	nlog int
}

// NewCoreState returns a core with all structures empty.
func NewCoreState() *CoreState {
	cs := &CoreState{}
	for k := StructKind(0); k < sharedKindsStart; k++ {
		cs.bufs[k] = NewBuffer(k, defaultSizes[k])
	}
	return cs
}

// Reset empties every per-core structure and forgets the execution
// history, returning the state a fresh NewCoreState would have while
// keeping each buffer's grown backing array for the next trial.
func (cs *CoreState) Reset() {
	for k := StructKind(0); k < sharedKindsStart; k++ {
		cs.bufs[k].Reset()
	}
	cs.nlog = 0
	cs.lastDomain = DomainNone
	cs.switches = 0
}

// Buffer returns the structure of the given per-core kind, with every
// pending touch folded in. A later Touch is logged on the core, not in
// the buffer, so callers must not hold the pointer across one: call
// Buffer again to see it.
func (cs *CoreState) Buffer(k StructKind) *Buffer {
	if k.Shared() {
		panic(fmt.Sprintf("uarch: %v is not per-core", k))
	}
	cs.drain()
	return cs.bufs[k]
}

// LastDomain reports the domain that most recently executed on this core.
func (cs *CoreState) LastDomain() DomainID { return cs.lastDomain }

// DomainSwitches reports how many cross-domain context switches this core
// has observed — exactly the events core gapping eliminates.
func (cs *CoreState) DomainSwitches() uint64 { return cs.switches }

// Touch models domain d executing on the core: it fills per-core
// structures proportionally to footprint (0..1 of each structure's
// capacity), tagging secretFrac of new entries as secret-derived.
// tagSrc provides entry identities deterministically.
//
// Touch is the simulator's hottest call (every execution slice on every
// core lands here), yet almost no fill is ever read: later touches
// overwrite it first. So Touch only appends one record to the core's
// touch log, and drain turns the log into per-structure fills when
// someone reads the core. A touch with footprint > 0 draws exactly one
// value from tagSrc, whatever the footprint, and every structure's fill
// seed is derived from that value; a touch with no footprint draws
// nothing. So the stream every other consumer sees does not depend on
// when, or whether, the fills happen.
func (cs *CoreState) Touch(d DomainID, footprint, secretFrac float64, tagSrc *sim.Source) {
	if d != cs.lastDomain {
		if cs.lastDomain != DomainNone && d != DomainNone {
			cs.switches++
		}
		cs.lastDomain = d
	}
	if footprint <= 0 {
		return
	}
	if footprint > 1 {
		footprint = 1
	}
	if cs.nlog == touchLogLen {
		cs.drain()
	}
	cs.log[cs.nlog] = touch{tag: tagSrc.Uint64(), footprint: footprint, secretFrac: secretFrac, domain: d}
	cs.nlog++
}

// fillSeed derives structure k's fill seed from a touch's tag.
func fillSeed(tag uint64, k StructKind) uint64 { return sim.Mix(tag, uint64(k)) }

// drain folds every logged touch into the buffers and empties the log.
//
// Each buffer receives exactly the fillRuns pushFill's sliding window
// would have kept had every touch been pushed eagerly: the shortest
// suffix of the log whose fills cover the ring (or the whole log if it
// does not). The touches before that suffix are overwritten before
// anyone could read them, so they only advance the ring cursor, and
// their seeds are never derived.
func (cs *CoreState) drain() {
	if cs.nlog == 0 {
		return
	}
	var first [sharedKindsStart]int // per kind: oldest touch pushed
	lo := cs.nlog
	for k, b := range cs.bufs {
		i, need := cs.nlog, b.cap
		for i > 0 && need > 0 {
			i--
			need -= fillLen(cs.log[i].footprint, b.cap)
		}
		if i > 0 {
			skipped := 0
			for j := 0; j < i; j++ {
				skipped += fillLen(cs.log[j].footprint, b.cap)
			}
			b.skip(skipped)
		}
		first[k] = i
		lo = min(lo, i)
	}
	for i := lo; i < cs.nlog; i++ {
		t := &cs.log[i]
		frac := -1.0
		if t.secretFrac > 0 {
			frac = t.secretFrac
		}
		for k, b := range cs.bufs {
			if i >= first[k] {
				b.pushFill(t.domain, fillLen(t.footprint, b.cap), frac, fillSeed(t.tag, StructKind(k)))
			}
		}
	}
	cs.nlog = 0
}

// fillLen is the number of entries a touch of the given footprint
// writes into a structure of the given capacity: at least one.
func fillLen(footprint float64, capacity int) int {
	return max(1, int(footprint*float64(capacity)))
}

// warmthWeights weights each structure's occupancy in Warmth toward the
// ones that dominate restart cost. Warmth sums them in this order, so
// its float result does not depend on iteration order.
var warmthWeights = [...]struct {
	kind   StructKind
	weight float64
}{
	{L1D, 0.25}, {L1I, 0.10}, {L2, 0.35}, {DTLB, 0.10}, {ITLB, 0.05},
	{BTB, 0.10}, {UopCache, 0.05},
}

// Warmth reports the fraction of per-core cache/TLB/predictor capacity
// currently holding d's entries, weighted toward the structures that
// dominate restart cost (L1, L2, TLBs). 1.0 means fully warm.
func (cs *CoreState) Warmth(d DomainID) float64 {
	cs.drain()
	var w, total float64
	for _, kw := range warmthWeights {
		w += kw.weight * cs.bufs[kw.kind].Occupancy(d)
		total += kw.weight
	}
	return w / total
}

// FlushAll architecturally flushes every per-core structure and returns
// the modelled time cost. This is the mitigation work a shared-core
// security monitor must perform on every world switch (§2.1: "flushing
// carries an inevitable cost"). Pending touches are dropped unfolded.
func (cs *CoreState) FlushAll(costs FlushCosts) sim.Duration {
	cs.nlog = 0
	var total sim.Duration
	for k := StructKind(0); k < sharedKindsStart; k++ {
		cs.bufs[k].Flush()
		total += costs.Of(k)
	}
	return total
}

// FlushMitigations flushes only the structures targeted by deployed
// transient-execution mitigations (branch state, store/fill buffers,
// FPU state) — the verw/BHB-clear/FEDISABLE-style sequence — and
// returns its time cost.
func (cs *CoreState) FlushMitigations(costs FlushCosts) sim.Duration {
	cs.drain()
	var total sim.Duration
	for _, k := range []StructKind{BTB, RSB, StoreBuffer, FillBuffer, LoadPort, FPURegs, UopCache} {
		cs.bufs[k].Flush()
		total += costs.Of(k)
	}
	return total
}

// ResidueFor reports, per structure, foreign entries visible to reader.
func (cs *CoreState) ResidueFor(reader DomainID) map[StructKind][]Entry {
	cs.drain()
	out := make(map[StructKind][]Entry)
	for k := StructKind(0); k < sharedKindsStart; k++ {
		if r := cs.bufs[k].Residue(reader); len(r) > 0 {
			out[k] = r
		}
	}
	return out
}

// FlushCosts gives the modelled per-structure flush latency.
type FlushCosts map[StructKind]sim.Duration

// Of reports the cost for kind k (0 when unspecified).
func (fc FlushCosts) Of(k StructKind) sim.Duration { return fc[k] }

// DefaultFlushCosts models a contemporary mitigation sequence. The values
// sum to the multi-microsecond world-switch overhead the paper observes
// for same-core monitor calls (Table 2: >12.8 µs including EL3 costs).
func DefaultFlushCosts() FlushCosts {
	return FlushCosts{
		L1D:         2 * sim.Microsecond,
		L1I:         800 * sim.Nanosecond,
		L2:          0, // not flushed in practice
		DTLB:        600 * sim.Nanosecond,
		ITLB:        400 * sim.Nanosecond,
		BTB:         900 * sim.Nanosecond,
		RSB:         100 * sim.Nanosecond,
		StoreBuffer: 200 * sim.Nanosecond,
		FillBuffer:  300 * sim.Nanosecond,
		LoadPort:    200 * sim.Nanosecond,
		FPURegs:     400 * sim.Nanosecond,
		UopCache:    300 * sim.Nanosecond,
		APICRegs:    0,
		Prefetch:    200 * sim.Nanosecond,
	}
}

// SharedState is the socket-level state shared by all cores.
type SharedState struct {
	llc         *Buffer
	llcWays     int
	partitioned bool
	// wayOwner maps LLC way index -> domain when partitioning is enabled.
	wayOwner []DomainID
	staging  *Buffer
}

// NewSharedState returns socket state with an llcWays-way LLC and a
// CrossTalk-style staging buffer.
func NewSharedState(llcEntries, llcWays int) *SharedState {
	if llcWays <= 0 {
		llcWays = 16
	}
	return &SharedState{
		llc:      NewBuffer(LLC, llcEntries),
		llcWays:  llcWays,
		wayOwner: make([]DomainID, llcWays),
		staging:  NewBuffer(Staging, 32),
	}
}

// Reset empties the LLC and staging buffer, disables partitioning, and
// frees every way assignment — the state a fresh NewSharedState would
// have, minus the allocations.
func (ss *SharedState) Reset() {
	ss.llc.Reset()
	ss.staging.Reset()
	ss.partitioned = false
	clear(ss.wayOwner)
}

// LLC returns the shared last-level cache.
func (ss *SharedState) LLC() *Buffer { return ss.llc }

// Staging returns the shared staging buffer (CrossTalk's channel).
func (ss *SharedState) Staging() *Buffer { return ss.staging }

// EnablePartitioning turns on way-partitioning of the LLC (the hardware
// cache-partitioning mitigation the paper recommends for the remaining
// cross-core cache channel, §2.4).
func (ss *SharedState) EnablePartitioning() { ss.partitioned = true }

// Partitioned reports whether LLC way-partitioning is enabled.
func (ss *SharedState) Partitioned() bool { return ss.partitioned }

// AssignWays gives n LLC ways to domain d; returns false when fewer than
// n ways remain unassigned.
func (ss *SharedState) AssignWays(d DomainID, n int) bool {
	free := 0
	for _, o := range ss.wayOwner {
		if o == DomainNone {
			free++
		}
	}
	if free < n {
		return false
	}
	for i := range ss.wayOwner {
		if n == 0 {
			break
		}
		if ss.wayOwner[i] == DomainNone {
			ss.wayOwner[i] = d
			n--
		}
	}
	return true
}

// ReleaseWays returns all of d's LLC ways to the free pool.
func (ss *SharedState) ReleaseWays(d DomainID) {
	for i, o := range ss.wayOwner {
		if o == d {
			ss.wayOwner[i] = DomainNone
		}
	}
}

// TouchShared models domain d filling shared structures. With LLC
// partitioning enabled, d's fills are confined to its own ways and cannot
// evict (nor be observed via) other domains' lines. It reports how many
// resident lines the fill evicted — the cross-domain side effect the
// PRIME+PROBE channel observes, surfaced so callers can count it.
func (ss *SharedState) TouchShared(d DomainID, footprint float64, usesStaging bool, tagSrc *sim.Source) (evicted int) {
	if footprint > 1 {
		footprint = 1
	}
	n := int(footprint * float64(ss.llc.Cap()) / float64(ss.llcWays))
	if free := ss.llc.Cap() - ss.llc.Len(); n > free {
		evicted = n - free
	}
	for i := 0; i < n; i++ {
		ss.llc.Insert(Entry{Domain: d, Tag: tagSrc.Uint64()})
	}
	if usesStaging {
		// Instructions like RDRAND/CPUID leave residue in the shared
		// staging buffer regardless of which core executed them.
		if ss.staging.Len() == ss.staging.Cap() {
			evicted++
		}
		ss.staging.Insert(Entry{Domain: d, Secret: true, Tag: tagSrc.Uint64()})
	}
	return evicted
}

// LLCObservable reports whether reader can observe domain owner's LLC
// footprint: always true without partitioning, never true with it
// (distinct domains never share ways once assigned).
func (ss *SharedState) LLCObservable(owner, reader DomainID) bool {
	if owner.Trusts(reader) {
		return true
	}
	return !ss.partitioned
}
