package sim

import (
	"fmt"
	"testing"
)

// driveOps interprets a byte string as a schedule/cancel/tick program
// against a fresh loop with the given scheduler and returns the exact
// firing log. Deltas are decoded so that equal-deadline collisions,
// in-slot inserts during a drain, far-heap spills (beyond the
// calendar's ~4.2 ms window), and idle jumps all occur routinely.
func driveOps(kind SchedulerKind, prog []byte) []string {
	l := NewLoopSched(1, kind)
	var log []string
	var refs []EventRef
	id := 0
	pc := 0
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return b
	}
	// Delta menu mixes sub-slot, multi-slot, window-edge, and
	// far-future offsets, plus frequent exact collisions (delta 0).
	deltas := []Time{
		0, 0, 1, 100, 1023, 1024, 1025,
		10 * Microsecond, 3 * Millisecond,
		4 * Millisecond, 5 * Millisecond, // straddle the window edge
		50 * Millisecond, 2 * Second, // far heap
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		d := deltas[int(next())%len(deltas)]
		refs = append(refs, l.Schedule(d, func() {
			log = append(log, fmt.Sprintf("%d@%d", me, l.Now()))
			if depth < 3 && next()%4 == 0 {
				schedule(depth + 1) // reschedule from inside a callback
			}
		}))
	}
	for pc < len(prog) {
		switch next() % 5 {
		case 0, 1, 2:
			schedule(0)
		case 3:
			if len(refs) > 0 {
				refs[int(next())%len(refs)].Cancel()
			}
		case 4:
			// Partial run: advances now, exercises idle jumps and
			// pushes into already-advanced windows.
			l.Run(l.Now() + Time(next())*37*Microsecond)
		}
	}
	l.RunAll()
	return log
}

func diffLogs(t *testing.T, prog []byte) {
	t.Helper()
	h := driveOps(SchedHeap, prog)
	c := driveOps(SchedCalendar, prog)
	if len(h) != len(c) {
		t.Fatalf("fired %d events on heap, %d on calendar", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("firing order diverges at %d: heap %s, calendar %s", i, h[i], c[i])
		}
	}
}

// TestSchedulerDifferentialOps drives both schedulers through seeded
// pseudo-random programs and requires identical firing logs.
func TestSchedulerDifferentialOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := NewRand(seed)
		prog := make([]byte, 4096)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		diffLogs(t, prog)
	}
}

// TestEqualDeadlineFIFO schedules many callbacks onto identical
// deadlines — from outside and from inside the draining slot — and
// checks FIFO order on both schedulers.
func TestEqualDeadlineFIFO(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedCalendar} {
		l := NewLoopSched(1, kind)
		var got []int
		at := Time(5 * Microsecond)
		for i := 0; i < 50; i++ {
			i := i
			l.At(at, func() {
				got = append(got, i)
				if i == 0 {
					// Delay-zero insert into the slot being drained:
					// must land after every already-queued callback at
					// this deadline.
					l.Schedule(0, func() { got = append(got, 1000) })
				}
			})
		}
		l.RunAll()
		if len(got) != 51 {
			t.Fatalf("%v: fired %d, want 51", kind, len(got))
		}
		for i := 0; i < 50; i++ {
			if got[i] != i {
				t.Fatalf("%v: position %d fired %d, want %d (FIFO broken)", kind, i, got[i], i)
			}
		}
		if got[50] != 1000 {
			t.Fatalf("%v: delay-zero insert fired at position %d, want last", kind, got[50])
		}
	}
}

// TestCalendarIdleJumpThenEarlyPush reproduces the trickiest window
// case: the queue idles far into the future (base slot jumps), then an
// event lands before the jumped-to slot and must still fire first.
func TestCalendarIdleJumpThenEarlyPush(t *testing.T) {
	l := NewLoopSched(1, SchedCalendar)
	var got []string
	l.At(100*Millisecond, func() { got = append(got, "far") })
	// Run to 50 ms: nothing fires; popLE's idle jump moves the window
	// base no further than the 50 ms slot, the run limit.
	l.Run(50 * Millisecond)
	// Now schedule between the run limit and the far timer (>= now).
	l.At(60*Millisecond, func() { got = append(got, "early") })
	l.At(60*Millisecond, func() { got = append(got, "early2") })
	l.RunAll()
	want := []string{"early", "early2", "far"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCalendarWindowStopsAtRunLimit pins the window to the run limit:
// after Run(until) on a wheel whose only event is a far timer, the base
// slot must not have jumped to that timer, so events scheduled from
// outside the loop just after until land in their own slots instead of
// piling into one sorted base bucket.
func TestCalendarWindowStopsAtRunLimit(t *testing.T) {
	l := NewLoopSched(1, SchedCalendar)
	c := l.sched.(*calendarQueue)
	var got []Time
	l.At(Second, func() { got = append(got, l.Now()) })
	until := 100 * Millisecond
	l.Run(until)
	const n = 10000
	for i := 0; i < n; i++ {
		// Distinct microseconds in [until, until+10ms), pushed in a
		// scrambled order so a parked bucket would have to sort.
		at := until + Time((i*7919)%n)*Microsecond
		l.At(at, func() { got = append(got, l.Now()) })
	}
	for idx := range c.buckets {
		b := &c.buckets[idx]
		for _, ev := range b.evs[b.next:] {
			if slotOf(ev.at) != slotOf(b.evs[b.next].at) {
				t.Fatalf("bucket %d holds %d events spanning slots %d..%d", idx,
					len(b.evs)-b.next, slotOf(b.evs[b.next].at), slotOf(ev.at))
			}
		}
	}
	if c.baseSlot > slotOf(until) {
		t.Fatalf("baseSlot %d past the run limit's slot %d", c.baseSlot, slotOf(until))
	}
	l.RunAll()
	if len(got) != n+1 {
		t.Fatalf("fired %d events, want %d", len(got), n+1)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("event %d fired at %d after %d", i, got[i], got[i-1])
		}
	}
}

// TestCalendarParkAfterCancelledTail covers the one way the window can
// still pass Now(): Step discards a cancelled event queued far ahead,
// and later pushes behind the window base must be parked in the base
// bucket and still fire in (at, seq) order, as on the heap.
func TestCalendarParkAfterCancelledTail(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedCalendar} {
		l := NewLoopSched(1, kind)
		var got []string
		l.At(Millisecond, func() { got = append(got, "cancelled") }).Cancel()
		if l.Step() {
			t.Fatalf("%v: Step fired a cancelled event", kind)
		}
		l.At(20*Microsecond, func() { got = append(got, "b") })
		l.At(10*Microsecond, func() { got = append(got, "a") })
		l.At(20*Microsecond, func() { got = append(got, "c") })
		l.RunAll()
		if fmt.Sprint(got) != "[a b c]" {
			t.Fatalf("%v: fired %v, want [a b c]", kind, got)
		}
	}
}

// TestSchedulerCancelRecycle checks that a stale EventRef from a fired
// event cannot cancel the recycled event struct's next incarnation.
func TestSchedulerCancelRecycle(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedHeap, SchedCalendar} {
		l := NewLoopSched(1, kind)
		fired := 0
		ref := l.Schedule(Microsecond, func() { fired++ })
		l.RunAll()
		// The event struct is now on the free list; the next schedule
		// reuses it. The stale ref must not cancel it.
		l.Schedule(Microsecond, func() { fired++ })
		ref.Cancel()
		l.RunAll()
		if fired != 2 {
			t.Fatalf("%v: fired %d, want 2 — stale ref cancelled a recycled event", kind, fired)
		}
	}
}

// FuzzSchedulerOrdering feeds arbitrary programs to both schedulers
// and requires bit-identical firing logs, fuzzing the
// FIFO-at-equal-deadline tiebreak among everything else.
func FuzzSchedulerOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3, 4, 4})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 9, 9, 9, 4, 255, 3, 1})
	rng := NewRand(42)
	seedProg := make([]byte, 512)
	for i := range seedProg {
		seedProg[i] = byte(rng.Intn(256))
	}
	f.Add(seedProg)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<16 {
			t.Skip("program too large")
		}
		h := driveOps(SchedHeap, prog)
		c := driveOps(SchedCalendar, prog)
		if len(h) != len(c) {
			t.Fatalf("fired %d events on heap, %d on calendar", len(h), len(c))
		}
		for i := range h {
			if h[i] != c[i] {
				t.Fatalf("firing order diverges at %d: heap %s, calendar %s", i, h[i], c[i])
			}
		}
	})
}
