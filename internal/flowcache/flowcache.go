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
// open-addressed arrays (linear probing, backward-shift deletion,
// pointer buckets over a freelist of entries), selected by the low
// bits of the session-key hash. The *H method variants accept the
// caller's precomputed key hash so the datapath hashes each packet's
// key once.
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

	// hash caches Key.Hash() for probing and rehash.
	hash uint64
	// free links recycled entries; nil while the entry is live.
	free *Entry
}

// SizeOf reports the bytes e occupies under this table's layout — the
// accounting the profiler uses to attribute session-table residency
// per vNIC at drain time.
func (t *Table) SizeOf(e *Entry) int {
	return e.sizeBytes(!t.cfg.VariableState)
}

func (e *Entry) sizeBytes(fixedState bool) int {
	n := EntryOverheadBytes
	if e.HasPre {
		n += PreActionsBytes
	}
	if e.HasState {
		if fixedState {
			n += state.FixedSizeBytes
		} else {
			n += e.State.EncodedSize()
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

// shard is one open-addressed bucket array (linear probing).
type shard struct {
	buckets []*Entry
	mask    uint64
	n       int
}

// Table is the session table. Not safe for concurrent use; the
// simulation is single-threaded by design.
type Table struct {
	cfg    Config
	shards [numShards]shard
	count  int
	mem    int
	free   *Entry // recycled entries

	// scratch collects victims for two-pass bulk deletion (Sweep,
	// InvalidateVNIC) so iteration never races backward-shift moves.
	scratch []*Entry

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
	s.buckets = make([]*Entry, minShardBuckets)
	s.mask = minShardBuckets - 1
	s.n = 0
}

// shardOf selects the shard for a hash by its low bits.
func (t *Table) shardOf(hash uint64) *shard {
	return &t.shards[hash&(numShards-1)]
}

// probe returns the entry for (key, hash), or nil.
func (s *shard) probe(key packet.SessionKey, hash uint64) *Entry {
	i := hash & s.mask
	for {
		e := s.buckets[i]
		if e == nil {
			return nil
		}
		if e.hash == hash && e.Key == key {
			return e
		}
		i = (i + 1) & s.mask
	}
}

// insert places e (not already present) into the shard, growing first
// when load would exceed 3/4.
func (s *shard) insert(e *Entry) {
	if uint64(s.n+1)*4 > (s.mask+1)*3 {
		s.grow()
	}
	i := e.hash & s.mask
	for s.buckets[i] != nil {
		i = (i + 1) & s.mask
	}
	s.buckets[i] = e
	s.n++
}

func (s *shard) grow() {
	old := s.buckets
	size := (s.mask + 1) * 2
	s.buckets = make([]*Entry, size)
	s.mask = size - 1
	for _, e := range old {
		if e == nil {
			continue
		}
		i := e.hash & s.mask
		for s.buckets[i] != nil {
			i = (i + 1) & s.mask
		}
		s.buckets[i] = e
	}
}

// remove deletes the slot holding (key, hash) via backward shift,
// keeping every remaining entry reachable from its home slot. Returns
// the removed entry or nil.
func (s *shard) remove(key packet.SessionKey, hash uint64) *Entry {
	i := hash & s.mask
	for {
		e := s.buckets[i]
		if e == nil {
			return nil
		}
		if e.hash == hash && e.Key == key {
			break
		}
		i = (i + 1) & s.mask
	}
	victim := s.buckets[i]
	s.buckets[i] = nil
	s.n--
	// Backward shift: pull displaced successors into the hole.
	j := i
	for {
		j = (j + 1) & s.mask
		e := s.buckets[j]
		if e == nil {
			return victim
		}
		home := e.hash & s.mask
		if ((j - home) & s.mask) >= ((j - i) & s.mask) {
			s.buckets[i] = e
			s.buckets[j] = nil
			i = j
		}
	}
}

// alloc returns a zeroed entry, reusing the freelist when possible.
func (t *Table) alloc() *Entry {
	e := t.free
	if e == nil {
		return &Entry{}
	}
	t.free = e.free
	*e = Entry{}
	return e
}

// recycle returns a removed entry to the freelist. Callers must not
// retain the pointer: entries are reused by later inserts.
func (t *Table) recycle(e *Entry) {
	*e = Entry{free: t.free}
	t.free = e
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
	e := t.shardOf(hash).probe(key, hash)
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
	return t.shardOf(hash).probe(key, hash)
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
	if e := s.probe(key, hash); e != nil {
		e.LastSeen = now
		return e, nil
	}
	sz := EntryOverheadBytes // a fresh entry has neither pre nor state
	if t.cfg.MaxBytes > 0 && t.mem+sz > t.cfg.MaxBytes {
		t.Rejects++
		return nil, ErrNoMemory
	}
	e := t.alloc()
	e.Key, e.VNIC, e.LastSeen, e.hash = key, vnic, now, hash
	s.insert(e)
	t.count++
	t.mem += sz
	return e, nil
}

// mutate applies fn to e, re-charging its size delta. It returns
// ErrNoMemory (and rolls back) if growth would exceed the budget.
func (t *Table) mutate(e *Entry, fn func(*Entry)) error {
	before := e.sizeBytes(!t.cfg.VariableState)
	saved := *e
	fn(e)
	after := e.sizeBytes(!t.cfg.VariableState)
	if after > before && t.cfg.MaxBytes > 0 && t.mem+after-before > t.cfg.MaxBytes {
		*e = saved
		t.Rejects++
		return ErrNoMemory
	}
	t.mem += after - before
	return nil
}

// SetPre installs pre-actions (cached flow) on an entry.
func (t *Table) SetPre(e *Entry, pre tables.PreActions, version uint64) error {
	if e.HasPre {
		// Size is unchanged (pre-actions charge a fixed 64 B), so the
		// full mutate round-trip (two size computations plus a ~160 B
		// entry copy) is skipped.
		e.Pre = pre
		e.PreVersion = version
		return nil
	}
	return t.mutate(e, func(e *Entry) {
		e.HasPre = true
		e.Pre = pre
		e.PreVersion = version
	})
}

// SetState installs or replaces the session state on an entry.
func (t *Table) SetState(e *Entry, s state.State) error {
	if e.HasState && !t.cfg.VariableState {
		// Fixed-size layout: a state slot is 64 B regardless of
		// content, so replacement cannot change the charge.
		e.State = s
		return nil
	}
	return t.mutate(e, func(e *Entry) {
		e.HasState = true
		e.State = s
	})
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
	return t.mutate(e, func(e *Entry) {
		e.HasState = true
		e.State.Touch(dir, flags, payloadLen, now)
	})
}

// DropPre removes cached pre-actions from an entry, refunding their
// memory — the BE deletes its cached flows when entering the final
// offload stage while keeping the states (§4.2.1).
func (t *Table) DropPre(e *Entry) {
	if !e.HasPre {
		return
	}
	_ = t.mutate(e, func(e *Entry) {
		e.HasPre = false
		e.Pre = tables.PreActions{}
		e.PreVersion = 0
	})
}

// Delete removes an entry, refunding its memory.
func (t *Table) Delete(key packet.SessionKey) {
	t.deleteH(key, key.Hash())
}

func (t *Table) deleteH(key packet.SessionKey, hash uint64) {
	e := t.shardOf(hash).remove(key, hash)
	if e == nil {
		return
	}
	t.mem -= e.sizeBytes(!t.cfg.VariableState)
	t.count--
	t.recycle(e)
}

// bulkDelete removes every entry fn selects, two-pass: victims are
// collected first so backward-shift compaction never disturbs the
// iteration. The eviction SET is exactly the set a one-pass map
// delete produced.
func (t *Table) bulkDelete(fn func(*Entry) bool) int {
	victims := t.scratch[:0]
	for si := range t.shards {
		for _, e := range t.shards[si].buckets {
			if e != nil && fn(e) {
				victims = append(victims, e)
			}
		}
	}
	for _, e := range victims {
		t.deleteH(e.Key, e.hash)
	}
	n := len(victims)
	for i := range victims {
		victims[i] = nil
	}
	t.scratch = victims[:0]
	return n
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
	t.free = nil
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
		for _, e := range t.shards[si].buckets {
			if e != nil && !fn(e) {
				return
			}
		}
	}
}
