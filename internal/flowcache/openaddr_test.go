package flowcache

import (
	"math/rand"
	"reflect"
	"testing"

	"nezha/internal/packet"
	"nezha/internal/state"
	"nezha/internal/tables"
)

func keyFor(i int) packet.SessionKey {
	return packet.SessionKey{
		VNIC: uint32(1 + i%3),
		VPC:  7,
		Tuple: packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a000100 + packet.IPv4(i%5),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoTCP,
		},
	}
}

// TestOpenAddrModel drives the open-addressed table against a plain
// map model through long seeded op sequences (see driveModel):
// backward-shift deletion must never strand an entry.
func TestOpenAddrModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		prog := make([]byte, 60000)
		rand.New(rand.NewSource(seed)).Read(prog)
		driveModel(t, prog)
	}
}

// TestHashVariantsAgree pins the *H fast paths to their hashing
// wrappers.
func TestHashVariantsAgree(t *testing.T) {
	tab := New(Config{})
	k := keyFor(3)
	h := k.Hash()
	e, err := tab.GetOrCreateH(k, h, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tab.PeekH(k, h) != e || tab.Peek(k) != e {
		t.Fatal("PeekH/Peek disagree")
	}
	if tab.LookupH(k, h, 20) != e {
		t.Fatal("LookupH miss")
	}
	if e.LastSeen != 20 || tab.Hits != 1 {
		t.Fatalf("LookupH bookkeeping: LastSeen=%d Hits=%d", e.LastSeen, tab.Hits)
	}
}

// TestEntryRecycling checks deleted entries are reused and come back
// zeroed.
func TestEntryRecycling(t *testing.T) {
	tab := New(Config{})
	k1 := keyFor(1)
	e1, _ := tab.GetOrCreate(k1, 1, 5)
	var st state.State
	st.InitFirst(packet.DirTX, 5)
	if err := tab.SetState(e1, st); err != nil {
		t.Fatal(err)
	}
	tab.Delete(k1)
	k2 := keyFor(2)
	e2, _ := tab.GetOrCreate(k2, 2, 6)
	if e2 != e1 {
		t.Fatal("expected freelist reuse")
	}
	if e2.HasState || e2.HasPre || e2.Key != k2 || e2.VNIC != 2 {
		t.Fatalf("recycled entry not reset: %+v", e2)
	}
	if tab.MemBytes() != EntryOverheadBytes {
		t.Fatalf("mem = %d, want %d", tab.MemBytes(), EntryOverheadBytes)
	}
}

// modelEntry is the map model's view of one session.
type modelEntry struct {
	vnic     uint32
	hasPre   bool
	lastSeen int64
}

// bytes is the charge the table should hold for m.
func (m *modelEntry) bytes() int {
	if m.hasPre {
		return EntryOverheadBytes + PreActionsBytes
	}
	return EntryOverheadBytes
}

// driveModel interprets prog as a program of table operations and
// checks the table against a map model after every one. The first
// byte picks the budget (0 = unlimited) so budget refusals occur too.
func driveModel(t *testing.T, prog []byte) {
	pc := 0
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return b
	}
	maxBytes := int(next()%8) * 64 * EntryOverheadBytes
	tab := New(Config{MaxBytes: maxBytes})
	model := map[packet.SessionKey]*modelEntry{}
	mem := 0
	fits := func(d int) bool { return maxBytes == 0 || mem+d <= maxBytes }
	var now int64
	for pc < len(prog) {
		op, arg := next(), next()
		k := keyFor(int(arg))
		now += int64(next()) * 1000
		switch op % 8 {
		case 0, 1: // GetOrCreate
			e, err := tab.GetOrCreate(k, k.VNIC, now)
			m, ok := model[k]
			switch {
			case ok:
				m.lastSeen = now
			case fits(EntryOverheadBytes):
				model[k] = &modelEntry{vnic: k.VNIC, lastSeen: now}
				mem += EntryOverheadBytes
			default:
				if err != ErrNoMemory {
					t.Fatalf("op %d: GetOrCreate over budget: err %v, want ErrNoMemory", pc, err)
				}
				continue
			}
			if err != nil || e.Key != k {
				t.Fatalf("op %d: GetOrCreate: err %v", pc, err)
			}
		case 2: // Delete
			if m, ok := model[k]; ok {
				mem -= m.bytes()
				delete(model, k)
			}
			tab.Delete(k)
		case 3: // InvalidateVNIC, one time in four so tables fill up
			if arg%4 != 0 {
				continue
			}
			vnic := uint32(1 + arg%3)
			want := 0
			for mk, m := range model {
				if m.vnic == vnic {
					mem -= m.bytes()
					delete(model, mk)
					want++
				}
			}
			if n := tab.InvalidateVNIC(vnic); n != want {
				t.Fatalf("op %d: InvalidateVNIC(%d) = %d, want %d", pc, vnic, n, want)
			}
		case 4: // Sweep, one time in four, far enough ahead to age some entries out
			if arg%4 != 0 {
				continue
			}
			now += int64(arg) * idleAging / 1024
			want := 0
			for mk, m := range model {
				if now-m.lastSeen > idleAging {
					mem -= m.bytes()
					delete(model, mk)
					want++
				}
			}
			if n := tab.Sweep(now); n != want {
				t.Fatalf("op %d: Sweep = %d, want %d", pc, n, want)
			}
		case 5: // Clear, rarely
			if arg == 0 {
				tab.Clear()
				model = map[packet.SessionKey]*modelEntry{}
				mem = 0
			}
		case 6: // SetPre / DropPre
			e := tab.Peek(k)
			m, ok := model[k]
			if (e != nil) != ok {
				t.Fatalf("op %d: Peek present=%v, model=%v", pc, e != nil, ok)
			}
			if !ok {
				continue
			}
			if arg%2 == 0 {
				err := tab.SetPre(e, tables.PreActions{}, uint64(arg))
				if !m.hasPre && !fits(PreActionsBytes) {
					if err != ErrNoMemory || e.HasPre {
						t.Fatalf("op %d: SetPre over budget: err %v HasPre %v", pc, err, e.HasPre)
					}
					continue
				}
				if err != nil {
					t.Fatalf("op %d: SetPre: %v", pc, err)
				}
				if !m.hasPre {
					mem += PreActionsBytes
				}
				m.hasPre = true
			} else {
				tab.DropPre(e)
				if m.hasPre {
					mem -= PreActionsBytes
				}
				m.hasPre = false
			}
		default: // LookupH
			e := tab.LookupH(k, k.Hash(), now)
			m, ok := model[k]
			if (e != nil) != ok {
				t.Fatalf("op %d: LookupH present=%v, model=%v", pc, e != nil, ok)
			}
			if ok {
				m.lastSeen = now
			}
		}
		checkModel(t, pc, tab, model, mem)
	}
}

// checkModel requires the table to hold exactly the model's entries.
func checkModel(t *testing.T, pc int, tab *Table, model map[packet.SessionKey]*modelEntry, mem int) {
	t.Helper()
	if tab.Len() != len(model) || tab.MemBytes() != mem {
		t.Fatalf("op %d: Len=%d MemBytes=%d, model %d entries, %d B", pc, tab.Len(), tab.MemBytes(), len(model), mem)
	}
	for k, m := range model {
		e := tab.Peek(k)
		if e == nil || e.Key != k || e.VNIC != m.vnic || e.HasPre != m.hasPre || e.LastSeen != m.lastSeen {
			t.Fatalf("op %d: key %v probes to %+v, model %+v", pc, k, e, m)
		}
	}
	seen := map[packet.SessionKey]bool{}
	tab.Range(func(e *Entry) bool {
		if _, ok := model[e.Key]; !ok || seen[e.Key] {
			t.Fatalf("op %d: Range visited %v (in model %v, seen %v)", pc, e.Key, ok, seen[e.Key])
		}
		seen[e.Key] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("op %d: Range visited %d entries, want %d", pc, len(seen), len(model))
	}
}

// FuzzTableModel drives the table with arbitrary op bytes against a map
// model: inserts, deletes, vNIC invalidation, sweeps at advancing
// times, clears, pre-action charges under a budget, and lookups.
func FuzzTableModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 2, 1, 0, 6, 1, 0, 7, 1, 0})
	f.Add([]byte{3, 0, 9, 0, 1, 9, 0, 6, 4, 0, 3, 2, 0, 4, 200, 0, 5, 0, 0})
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3; n++ {
		prog := make([]byte, 1536)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			t.Skip("program too large")
		}
		driveModel(t, prog)
	})
}

// TestInsertAllocs pins the slab's allocation profile: inserts into
// recycled slots allocate nothing, and fresh inserts allocate only
// whole chunks and bucket-array growths, never one object per entry.
func TestInsertAllocs(t *testing.T) {
	const n = 4096
	keys := make([]packet.SessionKey, n)
	hashes := make([]uint64, n)
	for i := range keys {
		keys[i] = keyFor(i)
		hashes[i] = keys[i].Hash()
	}
	fill := func(tab *Table) {
		for i, k := range keys {
			if _, err := tab.GetOrCreateH(k, hashes[i], k.VNIC, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := testing.AllocsPerRun(5, func() { fill(New(Config{})) })
	if per := fresh / n; per >= 0.05 {
		t.Fatalf("fresh inserts: %.0f allocs for %d entries (%.3f/insert), want < 0.05", fresh, n, per)
	}
	tab := New(Config{})
	fill(tab)
	recycled := testing.AllocsPerRun(5, func() {
		for _, k := range keys {
			tab.Delete(k)
		}
		fill(tab)
	})
	if recycled != 0 {
		t.Fatalf("inserts into recycled slots: %.0f allocs per %d, want 0", recycled, n)
	}
}

// TestEntryPointerFree keeps Entry free of pointers, so the slab
// chunks are never scanned by the garbage collector.
func TestEntryPointerFree(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		}
		return false
	}
	if !walk(reflect.TypeOf(Entry{})) {
		t.Fatal("Entry holds a pointer-bearing field; slab chunks would be GC-scanned")
	}
}
