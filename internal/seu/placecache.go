package seu

import (
	"sync"
	"sync/atomic"

	"repro/internal/place"
)

// maxCachedPlacements bounds the per-placement campaign state (the pre-plan
// cache entry and the replica pool): only the most recently used placements
// keep theirs, so a long-lived process that places design after design — a
// benchmark loop, a daemon serving job after job — holds a fixed number of
// compiled designs, plans and parked boards instead of one set per
// placement it ever saw. Repeated campaigns over one placement (the
// crosscheck lattice, chunked re-runs) still hit.
const maxCachedPlacements = 4

// placementState is the campaign state cached for one placement.
type placementState struct {
	p    *place.Placed
	plan atomic.Pointer[planCacheEntry]
	pool sync.Pool // of *pooledReplica
}

// placements holds the cached states, most recently used first.
var placements struct {
	mu      sync.Mutex
	entries []*placementState
}

// placementFor returns p's cached state and marks it most recently used. A
// missing state is added when create is set — dropping the least recently
// used one beyond maxCachedPlacements, and with it that placement's plan
// and parked replicas — and reported as nil otherwise.
func placementFor(p *place.Placed, create bool) *placementState {
	placements.mu.Lock()
	defer placements.mu.Unlock()
	es := placements.entries
	i := 0
	for i < len(es) && es[i].p != p {
		i++
	}
	if i == len(es) {
		if !create {
			return nil
		}
		if len(es) < maxCachedPlacements {
			es = append(es, nil)
		}
		i = len(es) - 1 // the slot the shift below overwrites
		es[i] = &placementState{p: p}
	}
	st := es[i]
	copy(es[1:i+1], es[:i])
	es[0] = st
	placements.entries = es
	return st
}
