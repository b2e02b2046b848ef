// Package blowfish is a stand-in matching lockdiscipline's audited
// package list, with Table and DatasetIndex named to hit the default
// rank order (Table before DatasetIndex).
package blowfish

import "sync"

// Table mimics stream.Table: RW lock with exported wrapper methods.
type Table struct {
	mu   sync.RWMutex
	rows []int
}

// RLock forwards; wrappers named like lock methods are exempt from the
// pairing rule — forwarding is their whole job.
func (t *Table) RLock() { t.mu.RLock() }

// RUnlock forwards.
func (t *Table) RUnlock() { t.mu.RUnlock() }

// DatasetIndex mimics engine.DatasetIndex: plain mutex around counts.
type DatasetIndex struct {
	mu     sync.Mutex
	counts []float64
}

// ReadGood takes the locks in documented order: accepted.
func ReadGood(t *Table, x *DatasetIndex) int {
	t.RLock()
	defer t.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(t.rows) + len(x.counts)
}

// ReadInverted acquires the Table fence while the index lock is held.
func ReadInverted(t *Table, x *DatasetIndex) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	t.RLock() // want `lock order inversion`
	defer t.RUnlock()
	return len(t.rows) + len(x.counts)
}

// Leak locks and forgets: every early return keeps the lock forever.
func Leak(x *DatasetIndex) {
	x.mu.Lock() // want `no later matching unlock`
	x.counts = nil
}

// DoubleLock re-acquires a held, non-reentrant mutex.
func DoubleLock(x *DatasetIndex) {
	x.mu.Lock()
	x.mu.Lock() // want `locked while already held`
	x.counts = nil
	x.mu.Unlock()
	x.mu.Unlock()
}

// CopyParam receives lock state by value; the copy guards nothing.
func CopyParam(t Table) int { // want `passes a mutex by value`
	return len(t.rows)
}

// Handoff returns the unlock as a method value — the repository's
// lockForRelease pattern. The reference counts as the pairing release.
func Handoff(x *DatasetIndex) func() {
	x.mu.Lock()
	return x.mu.Unlock
}

// HeldAcross hands the locked index to a worker goroutine that unlocks
// it; the per-function pairing rule cannot see that, so the doc comment
// carries the exception.
//
//lint:allow lockdiscipline lock is intentionally held across the goroutine handoff; the spawned worker releases it
func HeldAcross(x *DatasetIndex) {
	x.mu.Lock()
	go release(x)
}

func release(x *DatasetIndex) {
	x.counts = nil
	x.mu.Unlock()
}

// Router mimics shard.Router: an RW lock over a routing table, with
// creates and deletes holding it for writing.
type Router struct {
	mu     sync.RWMutex
	routes map[string]int
}

// route takes the read lock for a lookup.
func (r *Router) route(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.routes[id]
}

// UpgradeInPlace read-locks a receiver it already holds for writing.
func (r *Router) UpgradeInPlace(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.RLock() // want `locked while already held`
	defer r.mu.RUnlock()
	return r.routes[id]
}

// DeleteUnderLock calls a helper that read-locks the receiver while the
// write lock is held: a self-deadlock one call deep.
func (r *Router) DeleteUnderLock(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.route(id) // want `r.route called while r.mu is held`
	delete(r.routes, id)
}

// DeleteAfterUnlock releases the write lock before calling the helper:
// accepted.
func (r *Router) DeleteAfterUnlock(id string) int {
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
	return r.route(id)
}
