// Package flowcache implements the session table (Fig 1): cached
// bidirectional flows holding pre-actions, session state, or both,
// keyed by (VPC ID, normalized 5-tuple) for exact-match fast-path
// processing.
//
// The same structure serves three roles:
//
//   - a monolithic vSwitch stores pre-actions AND state per entry;
//   - a Nezha frontend (FE) stores pre-action-only entries — the
//     stateless "cached flows" that are safe to regenerate anywhere;
//   - a Nezha backend (BE) stores state-only entries — the single
//     local copy of session state.
//
// Every entry is charged to a byte budget, which is how the paper's
// "#concurrent flows limited by memory on fast path" bottleneck
// arises: when the budget is exhausted, inserts fail and new flows
// are dropped (an overload). Aging follows the state's FSM phase
// (short for establishing sessions, §7.3).
//
// Layout: the table is sharded by session-key hash into numShards
// open-addressed arrays (linear probing, backward-shift deletion),
// selected by the low bits of the session-key hash. A bucket is one
// packed uint64: the high 32 bits of the key hash as a tag and the
// entry's slab index plus one (0 = empty), so a probe step compares
// tags in the bucket array and loads an entry only on a tag match.
// Entries live in a pointer-free slab of fixed 256-entry chunks that
// never move (an *Entry stays valid while the entry is live); deleted
// entries go on a slab freelist and are reused by later inserts. The
// *H method variants accept the caller's precomputed key hash so the
// datapath hashes each packet's key once.
package flowcache

import (
	"errors"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

// Per-entry memory footprints (bytes). A full entry is O(100B) as the
// paper reports: bidirectional 5-tuple + VPC + pre-actions + state.
const (
	EntryOverheadBytes = 64 // key, links, aging bookkeeping
	PreActionsBytes    = 64 // bidirectional pre-actions
)

// ErrNoMemory is returned when inserting would exceed the byte budget.
var ErrNoMemory = errors.New("flowcache: memory budget exhausted")

// Entry is one session's cached record.
type Entry struct {
	Key  packet.SessionKey
	VNIC uint32

	// HasPre marks cached pre-actions (fast-path rules result).
	HasPre bool
	Pre    tables.PreActions
	// PreVersion is the RuleSet version the pre-actions were derived
	// from; a version mismatch is treated as a miss and the entry is
	// regenerated (rule-table change invalidation, §3.2.2).
	PreVersion uint64

	// HasState marks locally maintained session state.
	HasState bool
	State    state.State

	// LastSeen is the last access time (ns), for aging.
	LastSeen int64

	// hash caches Key.Hash() for rehash and backward-shift deletion.
	hash uint64
	// free links recycled entries by slab index plus one; 0 while the
	// entry is live and at the end of the freelist.
	free uint32
}

// SizeOf reports the bytes e occupies under this table's layout — the
// accounting the profiler uses to attribute session-table residency
// per vNIC at drain time.
func (t *Table) SizeOf(e *Entry) int {
	return e.sizeBytes(!t.cfg.VariableState)
}

func (e *Entry) sizeBytes(fixedState bool) int {
	return sizeOf(e.HasPre, e.HasState, &e.State, fixedState)
}

// sizeOf is the charge of an entry with the given contents.
func sizeOf(hasPre, hasState bool, st *state.State, fixedState bool) int {
	n := EntryOverheadBytes
	if hasPre {
		n += PreActionsBytes
	}
	if hasState {
		if fixedState {
			n += state.FixedSizeBytes
		} else {
			n += st.EncodedSize()
		}
	}
	return n
}

// Config controls a table's budget and layout.
type Config struct {
	// MaxBytes is the memory budget; 0 means unlimited.
	MaxBytes int
	// VariableState stores states at their encoded size instead of
	// the fixed 64 B slot — the §7.1 "potential to increase
	// #concurrent flows" ablation.
	VariableState bool
}

// numShards is the shard count; must stay a power of two (shardOf
// masks the hash).
const numShards = 8

// minShardBuckets keeps tiny shards probe-friendly.
const minShardBuckets = 8

// shard is one open-addressed bucket array (linear probing). Each
// bucket packs a hash tag and a slab index; see bucketOf.
type shard struct {
	buckets []uint64
	mask    uint64
	n       int
}

// tagMask selects the hash bits a bucket keeps as its tag.
const tagMask = ^uint64(1<<32 - 1)

// bucketOf packs the entry at slab index i with key hash into a
// non-zero bucket word.
func bucketOf(hash uint64, i uint32) uint64 { return hash&tagMask | (uint64(i) + 1) }

// slabIndex unpacks a non-zero bucket's slab index.
func slabIndex(b uint64) uint32 { return uint32(b) - 1 }

// chunkShift sets the slab chunk size: 256 entries per chunk.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
)

// slab stores entries in fixed chunks that never move, so an *Entry
// stays valid while its entry is live. Recycled entries are linked by
// index through Entry.free, which keeps Entry pointer-free: the GC
// never scans the chunks.
type slab struct {
	chunks [][]Entry
	n      uint32 // entries ever handed out
	free   uint32 // freelist head, slab index plus one; 0 = empty
}

func (sl *slab) at(i uint32) *Entry { return &sl.chunks[i>>chunkShift][i&(chunkSize-1)] }

// alloc returns a zeroed entry and its index, reusing the freelist
// when possible.
func (sl *slab) alloc() (uint32, *Entry) {
	if sl.free != 0 {
		i := sl.free - 1
		e := sl.at(i)
		sl.free = e.free
		e.free = 0
		return i, e
	}
	if sl.n&(chunkSize-1) == 0 {
		sl.chunks = append(sl.chunks, make([]Entry, chunkSize))
	}
	sl.n++
	return sl.n - 1, sl.at(sl.n - 1)
}

// release zeroes the entry at i and pushes it on the freelist. Callers
// must not retain its pointer: entries are reused by later inserts.
func (sl *slab) release(i uint32) {
	*sl.at(i) = Entry{free: sl.free}
	sl.free = i + 1
}

// Table is the session table. Not safe for concurrent use; the
// simulation is single-threaded by design.
type Table struct {
	cfg    Config
	shards [numShards]shard
	count  int
	mem    int
	slab   slab

	// scratch collects victims' slab indices for two-pass bulk
	// deletion (Sweep, InvalidateVNIC) so iteration never races
	// backward-shift moves.
	scratch []uint32

	// Counters for the experiments.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Rejects   uint64
}

// New returns an empty table.
func New(cfg Config) *Table {
	t := &Table{cfg: cfg}
	for i := range t.shards {
		t.shards[i].init()
	}
	return t
}

func (s *shard) init() {
	s.buckets = make([]uint64, minShardBuckets)
	s.mask = minShardBuckets - 1
	s.n = 0
}

// shardOf selects the shard for a hash by its low bits.
func (t *Table) shardOf(hash uint64) *shard {
	return &t.shards[hash&(numShards-1)]
}

// probe returns the entry for (key, hash) and its bucket position, or
// a nil entry. Only a tag match loads the entry.
func (s *shard) probe(sl *slab, key packet.SessionKey, hash uint64) (*Entry, uint64) {
	tag := hash & tagMask
	i := hash & s.mask
	for {
		b := s.buckets[i]
		if b == 0 {
			return nil, 0
		}
		if b&tagMask == tag {
			if e := sl.at(slabIndex(b)); e.Key == key {
				return e, i
			}
		}
		i = (i + 1) & s.mask
	}
}

// insert places the entry at slab index ei (not already present) into
// the shard, growing first when load would exceed 3/4.
func (s *shard) insert(sl *slab, ei uint32, hash uint64) {
	if uint64(s.n+1)*4 > (s.mask+1)*3 {
		s.grow(sl)
	}
	s.place(bucketOf(hash, ei), hash)
	s.n++
}

// place puts bucket word b in the first free slot from hash's home.
func (s *shard) place(b, hash uint64) {
	i := hash & s.mask
	for s.buckets[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.buckets[i] = b
}

func (s *shard) grow(sl *slab) {
	old := s.buckets
	size := (s.mask + 1) * 2
	s.buckets = make([]uint64, size)
	s.mask = size - 1
	for _, b := range old {
		if b != 0 {
			s.place(b, sl.at(slabIndex(b)).hash)
		}
	}
}

// remove deletes the slot holding (key, hash) via backward shift,
// keeping every remaining entry reachable from its home slot. Returns
// the removed entry's slab index and whether it was present.
func (s *shard) remove(sl *slab, key packet.SessionKey, hash uint64) (uint32, bool) {
	e, i := s.probe(sl, key, hash)
	if e == nil {
		return 0, false
	}
	victim := slabIndex(s.buckets[i])
	s.buckets[i] = 0
	s.n--
	// Backward shift: pull displaced successors into the hole.
	j := i
	for {
		j = (j + 1) & s.mask
		b := s.buckets[j]
		if b == 0 {
			return victim, true
		}
		home := sl.at(slabIndex(b)).hash & s.mask
		if ((j - home) & s.mask) >= ((j - i) & s.mask) {
			s.buckets[i] = b
			s.buckets[j] = 0
			i = j
		}
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.count }

// MemBytes returns the bytes currently charged.
func (t *Table) MemBytes() int { return t.mem }

// MaxBytes returns the configured budget (0 = unlimited).
func (t *Table) MaxBytes() int { return t.cfg.MaxBytes }

// SetMaxBytes adjusts the budget (offload/fallback resizes the
// partitions). Shrinking below current use does not evict eagerly;
// the next Sweep or insert pressure handles it.
func (t *Table) SetMaxBytes(n int) { t.cfg.MaxBytes = n }

// Lookup returns the entry for key, counting a hit or miss, and
// refreshes LastSeen on hit.
func (t *Table) Lookup(key packet.SessionKey, now int64) *Entry {
	return t.LookupH(key, key.Hash(), now)
}

// LookupH is Lookup with the key hash precomputed by the caller (the
// datapath hashes each packet's key once and reuses it for shard
// selection and probing).
func (t *Table) LookupH(key packet.SessionKey, hash uint64, now int64) *Entry {
	e, _ := t.shardOf(hash).probe(&t.slab, key, hash)
	if e == nil {
		t.Misses++
		return nil
	}
	t.Hits++
	e.LastSeen = now
	return e
}

// Peek returns the entry without touching counters or LastSeen.
func (t *Table) Peek(key packet.SessionKey) *Entry {
	return t.PeekH(key, key.Hash())
}

// PeekH is Peek with a precomputed hash.
func (t *Table) PeekH(key packet.SessionKey, hash uint64) *Entry {
	e, _ := t.shardOf(hash).probe(&t.slab, key, hash)
	return e
}

// GetOrCreate returns the existing entry or inserts an empty one,
// charging its overhead. It returns ErrNoMemory when the budget
// cannot fit a new entry.
func (t *Table) GetOrCreate(key packet.SessionKey, vnic uint32, now int64) (*Entry, error) {
	return t.GetOrCreateH(key, key.Hash(), vnic, now)
}

// GetOrCreateH is GetOrCreate with a precomputed hash.
func (t *Table) GetOrCreateH(key packet.SessionKey, hash uint64, vnic uint32, now int64) (*Entry, error) {
	s := t.shardOf(hash)
	if e, _ := s.probe(&t.slab, key, hash); e != nil {
		e.LastSeen = now
		return e, nil
	}
	sz := EntryOverheadBytes // a fresh entry has neither pre nor state
	if t.cfg.MaxBytes > 0 && t.mem+sz > t.cfg.MaxBytes {
		t.Rejects++
		return nil, ErrNoMemory
	}
	ei, e := t.slab.alloc()
	e.Key, e.VNIC, e.LastSeen, e.hash = key, vnic, now, hash
	s.insert(&t.slab, ei, hash)
	t.count++
	t.mem += sz
	return e, nil
}

// recharge moves e's charge to that of an entry with the given
// contents. Growth past the budget is refused with ErrNoMemory before
// the caller writes anything, so there is nothing to roll back.
func (t *Table) recharge(e *Entry, hasPre, hasState bool, st *state.State) error {
	fixed := !t.cfg.VariableState
	d := sizeOf(hasPre, hasState, st, fixed) - e.sizeBytes(fixed)
	if d > 0 && t.cfg.MaxBytes > 0 && t.mem+d > t.cfg.MaxBytes {
		t.Rejects++
		return ErrNoMemory
	}
	t.mem += d
	return nil
}

// SetPre installs pre-actions (cached flow) on an entry.
func (t *Table) SetPre(e *Entry, pre tables.PreActions, version uint64) error {
	if e.HasPre {
		// Size is unchanged (pre-actions charge a fixed 64 B).
		e.Pre = pre
		e.PreVersion = version
		return nil
	}
	if err := t.recharge(e, true, e.HasState, &e.State); err != nil {
		return err
	}
	e.HasPre = true
	e.Pre = pre
	e.PreVersion = version
	return nil
}

// SetState installs or replaces the session state on an entry.
func (t *Table) SetState(e *Entry, s state.State) error {
	if e.HasState && !t.cfg.VariableState {
		// Fixed-size layout: a state slot is 64 B regardless of
		// content, so replacement cannot change the charge.
		e.State = s
		return nil
	}
	if err := t.recharge(e, e.HasPre, true, &s); err != nil {
		return err
	}
	e.HasState = true
	e.State = s
	return nil
}

// TouchState advances the entry's state for one packet (FSM + stats),
// re-charging variable-size growth.
func (t *Table) TouchState(e *Entry, dir packet.Direction, flags packet.TCPFlags, payloadLen int, now int64) error {
	if e.HasState && !t.cfg.VariableState {
		// Hot path: under the fixed layout the charge cannot move, so
		// the FSM advances in place with no copy and no budget check.
		e.State.Touch(dir, flags, payloadLen, now)
		return nil
	}
	next := e.State
	next.Touch(dir, flags, payloadLen, now)
	if err := t.recharge(e, e.HasPre, true, &next); err != nil {
		return err
	}
	e.HasState = true
	e.State = next
	return nil
}

// DropPre removes cached pre-actions from an entry, refunding their
// memory — the BE deletes its cached flows when entering the final
// offload stage while keeping the states (§4.2.1).
func (t *Table) DropPre(e *Entry) {
	if !e.HasPre {
		return
	}
	_ = t.recharge(e, false, e.HasState, &e.State) // shrinking always fits
	e.HasPre = false
	e.Pre = tables.PreActions{}
	e.PreVersion = 0
}

// Delete removes an entry, refunding its memory.
func (t *Table) Delete(key packet.SessionKey) {
	t.deleteH(key, key.Hash())
}

func (t *Table) deleteH(key packet.SessionKey, hash uint64) {
	ei, ok := t.shardOf(hash).remove(&t.slab, key, hash)
	if !ok {
		return
	}
	t.mem -= t.slab.at(ei).sizeBytes(!t.cfg.VariableState)
	t.count--
	t.slab.release(ei)
}

// bulkDelete removes every entry fn selects, two-pass: victims are
// collected first so backward-shift compaction never disturbs the
// iteration. The eviction SET is exactly the set a one-pass map
// delete produced.
func (t *Table) bulkDelete(fn func(*Entry) bool) int {
	victims := t.scratch[:0]
	for si := range t.shards {
		for _, b := range t.shards[si].buckets {
			if b != 0 && fn(t.slab.at(slabIndex(b))) {
				victims = append(victims, slabIndex(b))
			}
		}
	}
	for _, ei := range victims {
		e := t.slab.at(ei)
		t.deleteH(e.Key, e.hash)
	}
	t.scratch = victims[:0]
	return len(victims)
}

// InvalidateVNIC drops every entry belonging to vnic — used when a
// vNIC's rule tables are withdrawn from a node.
func (t *Table) InvalidateVNIC(vnic uint32) int {
	return t.bulkDelete(func(e *Entry) bool { return e.VNIC == vnic })
}

// Clear drops everything.
func (t *Table) Clear() {
	for i := range t.shards {
		t.shards[i].init()
	}
	t.count = 0
	t.mem = 0
	t.slab = slab{}
}

// idleAging is the eviction idle time for entries without state (FE
// cached flows age like established sessions).
const idleAging = state.AgingEstablished

// Sweep evicts expired entries at virtual time now and returns the
// eviction count. State-bearing entries age per their FSM phase
// (short SYN aging, §7.3); stateless cached flows use the idle aging.
func (t *Table) Sweep(now int64) int {
	n := t.bulkDelete(func(e *Entry) bool {
		if e.HasState {
			return e.State.Expired(now)
		}
		return now-e.LastSeen > idleAging
	})
	t.Evictions += uint64(n)
	return n
}

// Range iterates entries; fn returning false stops early. Iteration
// order is shard-then-bucket order — deterministic, unlike the map
// iteration it replaces; callers must not insert or delete during the
// walk.
func (t *Table) Range(fn func(*Entry) bool) {
	for si := range t.shards {
		for _, b := range t.shards[si].buckets {
			if b != 0 && !fn(t.slab.at(slabIndex(b))) {
				return
			}
		}
	}
}
