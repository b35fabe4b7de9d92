package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/efsm"
)

// SpecDigest is the cache key and the tenant identity of a specification:
// "sha256:" plus the hex digest of its source text. Clients may upload a spec
// once (POST /v1/specs) and refer to it by digest afterwards — the
// compile-once / serve-many contract.
func SpecDigest(source string) string {
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(source)))
}

// specEntry is one cached compilation: the immutable compiled spec (or the
// compile error — failures are cached too, so a bad spec hammered by a tenant
// costs one compile, not one per request). ready closes when the compile
// finishes; concurrent requests for the same digest wait on it instead of
// compiling again (singleflight).
type specEntry struct {
	digest string
	name   string

	ready chan struct{}
	spec  *efsm.Spec // nil when err != nil
	err   error

	// panics counts contained analysis panics attributed to this spec; at
	// the server's breaker threshold the spec is quarantined and further
	// requests for it are refused without running (the poisoned-spec circuit
	// breaker, mirroring batch.Options.BreakerKills).
	panics atomic.Int64

	lastUsed uint64 // LRU clock value, guarded by the cache mutex
}

// quarantined reports whether the entry has hit the breaker threshold.
func (e *specEntry) quarantined(breaker int64) bool {
	return breaker > 0 && e.panics.Load() >= breaker
}

// specCache is a bounded LRU of compiled specifications with singleflight
// compilation. Compilation runs outside the lock; the LRU bookkeeping is a
// plain clock-stamped map — max is small (tens), so O(n) eviction is fine.
type specCache struct {
	mu      sync.Mutex
	max     int
	clock   uint64
	entries map[string]*specEntry

	compiles  atomic.Int64 // compilations started (cache misses)
	hits      atomic.Int64 // requests served from cache
	evictions atomic.Int64
}

func newSpecCache(max int) *specCache {
	if max <= 0 {
		max = 32
	}
	return &specCache{max: max, entries: make(map[string]*specEntry)}
}

// get returns the entry for the given source, compiling it at most once
// however many requests race. cached reports whether the entry pre-existed.
// The entry's compile may still be in flight; callers must wait(ctx, e).
func (c *specCache) get(name, source string) (e *specEntry, cached bool) {
	digest := SpecDigest(source)
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[digest]; ok {
		e.lastUsed = c.clock
		c.mu.Unlock()
		c.hits.Add(1)
		return e, true
	}
	e = &specEntry{digest: digest, name: name, ready: make(chan struct{}), lastUsed: c.clock}
	c.entries[digest] = e
	c.evictLocked()
	c.mu.Unlock()
	c.compiles.Add(1)
	go func() {
		spec, err := efsm.Compile(name, source)
		e.spec, e.err = spec, err
		close(e.ready)
	}()
	return e, false
}

// lookup returns the entry for a digest a client obtained from /v1/specs, or
// nil when it is not (or no longer) cached.
func (c *specCache) lookup(digest string) *specEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok {
		return nil
	}
	c.clock++
	e.lastUsed = c.clock
	c.hits.Add(1)
	return e
}

// wait blocks until the entry's compile finishes or ctx ends, and returns the
// compiled spec or the compile error.
func (c *specCache) wait(ctx context.Context, e *specEntry) (*efsm.Spec, error) {
	select {
	case <-e.ready:
		return e.spec, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// evictLocked drops least-recently-used entries past the bound. Entries whose
// compile is still in flight are skipped: the compiling goroutine and any
// waiters hold them anyway, so evicting the map slot would only duplicate
// work. Called with c.mu held.
func (c *specCache) evictLocked() {
	for len(c.entries) > c.max {
		var victim *specEntry
		for _, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // compile in flight
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.digest)
		c.evictions.Add(1)
	}
}

// len returns the number of cached entries.
func (c *specCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
