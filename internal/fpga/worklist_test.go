package fpga

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refSet is the sorted-set reference model of one worklist bitset.
type refSet map[int32]bool

func (s refSet) sorted() []int32 {
	out := make([]int32, 0, len(s))
	for q := range s {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkNextRound asserts that next holds exactly ref, with lo/hi the
// lowest and highest dirty word, and that cur is empty (outside a drain).
func checkNextRound(t *testing.T, w *worklist, ref refSet) {
	t.Helper()
	want := make([]uint64, len(w.next))
	lo, hi := len(w.next), -1
	for q := range ref {
		i := int(q >> 6)
		want[i] |= 1 << uint(q&63)
		lo, hi = min(lo, i), max(hi, i)
	}
	for i := range want {
		if w.next[i] != want[i] {
			t.Fatalf("next word %d = %016x, want %016x", i, w.next[i], want[i])
		}
		if w.cur[i] != 0 {
			t.Fatalf("cur word %d = %016x outside a drain", i, w.cur[i])
		}
	}
	if w.lo != lo || w.hi != hi {
		t.Fatalf("next bounds [%d, %d], want [%d, %d]", w.lo, w.hi, lo, hi)
	}
	if w.pending() != (len(ref) > 0) {
		t.Fatalf("pending() = %v with %d queued", w.pending(), len(ref))
	}
}

// TestWorklistMatchesSortedSet drives the worklist through random schedule,
// drain-with-touch, and clear sequences against a sorted-set model: every
// round drains in strictly ascending position; a touch ahead of the cursor
// (same word or later) is visited in the same round; a touch at or behind
// it is deferred to the next; duplicates are idempotent; and the word
// bounds stay exact, with positions 0, 63, 64 and the last one favoured.
func TestWorklistMatchesSortedSet(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		w := newWorklist(n)
		edges := []int32{0, 63, 64, int32(n - 1)}
		pick := func() int32 {
			if rng.Intn(3) == 0 {
				if q := edges[rng.Intn(len(edges))]; q < int32(n) {
					return q
				}
			}
			return int32(rng.Intn(n))
		}
		next := refSet{}
		for round := 0; round < 20; round++ {
			for k := rng.Intn(12); k > 0; k-- {
				q := pick()
				w.schedule(q)
				w.schedule(q) // duplicate: idempotent
				next[q] = true
			}
			checkNextRound(t, &w, next)
			if rng.Intn(8) == 0 {
				w.clear()
				next = refSet{}
				checkNextRound(t, &w, next)
				continue
			}
			cur := next
			next = refSet{}
			w.promote()
			if w.pending() {
				t.Fatal("promote left next-round work behind")
			}
			last := int32(-1)
			for p := w.pop(); p >= 0; p = w.pop() {
				if want := cur.sorted()[0]; p != want {
					t.Fatalf("seed %d round %d: popped %d, want %d", seed, round, p, want)
				}
				if p <= last {
					t.Fatalf("seed %d: drain not ascending (%d after %d)", seed, p, last)
				}
				last = p
				delete(cur, p)
				for k := rng.Intn(4); k > 0; k-- {
					var q int32
					switch rng.Intn(4) {
					case 0: // later in the cursor's word, when there is room
						q = min(p|63, int32(n-1))
					case 1: // the cursor itself
						q = p
					default:
						q = pick()
					}
					w.touch(q, p)
					w.touch(q, p)
					if q > p {
						cur[q] = true
					} else {
						next[q] = true
					}
				}
			}
			if len(cur) != 0 {
				t.Fatalf("seed %d round %d: drain ended with %v unvisited", seed, round, cur.sorted())
			}
			checkNextRound(t, &w, next)
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWorklistRemap re-keys queued work under a new order: each LUT keeps
// its place in the queue at its new position.
func TestWorklistRemap(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewSource(1))
	oldOrder := make([]int32, n)
	newPos := make([]int32, n)
	for i, q := range rng.Perm(n) {
		oldOrder[i] = int32(q)
	}
	for i, q := range rng.Perm(n) {
		newPos[i] = int32(q)
	}
	w := newWorklist(n)
	want := refSet{}
	for _, q := range []int32{0, 63, 64, n - 1, 17} {
		w.schedule(q)
		want[newPos[oldOrder[q]]] = true
	}
	w.remap(oldOrder, newPos)
	checkNextRound(t, &w, want)
}
