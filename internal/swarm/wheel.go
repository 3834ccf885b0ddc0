package swarm

import (
	"time"

	"ncast/internal/protocol"
)

// timerEntry is one scheduled protocol.MemberTimer. Cancellation is lazy:
// the entry carries the Member's epoch at scheduling time, and the Member
// ignores a fired entry whose epoch has since moved (crashed, left,
// rejoined), so cancels cost nothing at the wheel.
type timerEntry struct {
	due   time.Time
	node  int32
	kind  protocol.TimerKind
	epoch uint32
}

// wheel is a hashed timer wheel: slots of `tick` width, entries hashed by
// due slot. One shard owns one wheel and drives it from its event loop —
// no locks, no per-timer goroutines, which is the whole point: 100k nodes
// schedule hundreds of thousands of timers onto O(shards) goroutines.
//
// Precision is one tick (the event loop sleeps at tick granularity while
// any timer is pending). Entries whose due time lies beyond one full
// rotation simply stay in their slot across rotations — advance re-checks
// each entry's absolute due time before firing.
type wheel struct {
	tick  time.Duration
	slots [][]timerEntry
	start time.Time
	// cur is the next absolute slot index to scan (slots scanned once per
	// rotation each).
	cur   int64
	count int
}

func newWheel(tick time.Duration, nslots int) *wheel {
	return &wheel{
		tick:  tick,
		slots: make([][]timerEntry, nslots),
		start: time.Now(),
	}
}

func (w *wheel) slotOf(due time.Time) int64 {
	s := int64(due.Sub(w.start) / w.tick)
	if s < w.cur {
		s = w.cur // past-due entries fire on the next advance
	}
	return s
}

func (w *wheel) add(e timerEntry) {
	i := w.slotOf(e.due) % int64(len(w.slots))
	w.slots[i] = append(w.slots[i], e)
	w.count++
}

// pending reports whether any timer is scheduled.
func (w *wheel) pending() bool { return w.count > 0 }

// advance scans every slot that became current since the last call,
// firing entries that are due and keeping the rest (future rotations).
// fire runs inline on the caller's goroutine.
func (w *wheel) advance(now time.Time, fire func(timerEntry)) {
	target := int64(now.Sub(w.start) / w.tick)
	if target < w.cur {
		return
	}
	n := int64(len(w.slots))
	// A long stall can put target many rotations ahead; each slot only
	// needs one scan per advance.
	first := w.cur
	if target-first >= n {
		target = first + n - 1
	}
	for s := first; s <= target; s++ {
		slot := w.slots[s%n]
		kept := slot[:0]
		for _, e := range slot {
			if e.due.After(now) {
				kept = append(kept, e)
				continue
			}
			w.count--
			fire(e)
		}
		// Zero the tail so fired entries don't pin memory.
		for i := len(kept); i < len(slot); i++ {
			slot[i] = timerEntry{}
		}
		w.slots[s%n] = kept
	}
	// Stay on the target slot (not past it): now may sit mid-slot, and an
	// entry due later inside the same slot must be rescanned on the next
	// advance rather than wait a full rotation.
	w.cur = target
}
