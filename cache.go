package dregex

import (
	"context"
	"fmt"
	"sync"
)

// Cache is a concurrency-safe LRU over compiled expressions, keyed by
// (syntax, source, plain/numeric). It amortizes the O(|e|) compile-time
// preprocessing across calls, which — together with the per-Expr engine
// cache — is what makes validator-style traffic cheap: real schema corpora
// reuse a small set of content models at enormous rates, so steady state
// is a map probe, not a compile.
//
// Concurrent Gets of the same key are deduplicated: exactly one goroutine
// compiles while the others wait for its result, and all receive the same
// *Expr (so they also share its lazily built engines). Compilation runs
// outside the lock. An entry mid-compile is on no LRU list, so eviction
// never drops it; only Purge can, without affecting callers already
// waiting on it.
//
// Failed compiles are cached too (a hot malformed input does not recompile
// per request), but negatively cached errors are segregated into their own
// small LRU: a stream of distinct bad sources can only evict other bad
// sources, never a hot compiled expression.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
	// pos holds compiled expressions, neg cached compile errors.
	pos, neg lruList
	// Counters, guarded by mu like the lists.
	hits, misses, evictions uint64
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits    uint64 // Gets served from the cache
	Misses  uint64 // Gets that had to compile
	Entries int    // entries currently resident (compiled + negative)
	// Negative is how many of the resident entries are cached compile
	// errors; they live in a segregated, separately bounded LRU.
	Negative int
	// Evictions counts entries displaced by capacity pressure (on either
	// LRU list) over the cache's lifetime; Purge is not an eviction.
	Evictions uint64
}

// HitRate returns the fraction of Gets served from the cache (0 when no
// Gets have happened) — the headline number a serving layer exports.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheKey struct {
	syntax  Syntax
	numeric bool
	source  string
}

// cacheEntry is one compiled expression. It is published in the map before
// anything is compiled, so concurrent Gets of its key find it and wait on
// done; the Get that created it compiles it, then places it on the LRU
// list its outcome selects — which is why the positive/negative verdict
// decides the capacity bound it falls under.
type cacheEntry struct {
	key cacheKey
	// done closes once expr, nexp and err are final.
	done chan struct{}
	expr *Expr        // plain pipeline result
	nexp *NumericExpr // numeric pipeline result
	err  error

	// Intrusive LRU links, guarded by the cache mutex; prev is nil while
	// the entry is on no list (mid-compile).
	prev, next *cacheEntry
}

// lruList is a doubly linked list with a sentinel root: root.next is the
// most recently used entry, root.prev the eviction candidate.
type lruList struct {
	root   cacheEntry
	n, max int
}

func (l *lruList) init() {
	l.root.prev, l.root.next = &l.root, &l.root
	l.n = 0
}

func (l *lruList) pushFront(e *cacheEntry) {
	e.prev, e.next = &l.root, l.root.next
	l.root.next.prev = e
	l.root.next = e
	l.n++
}

func (l *lruList) remove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// NewCache returns a cache holding up to capacity compiled expressions
// (capacity ≤ 0 selects a default of 1024), plus a segregated allowance —
// a quarter of capacity, at least one — for negatively cached compile
// errors. It is ready for concurrent use.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	c := &Cache{m: make(map[cacheKey]*cacheEntry)}
	c.pos.max = capacity
	c.neg.max = max(1, capacity/4)
	c.pos.init()
	c.neg.init()
	return c
}

// Get returns the compiled form of source, compiling at most once per
// resident key. The returned *Expr is shared between all callers (Expr is
// immutable and its engine cache is concurrency-safe). Compile errors are
// cached in the segregated negative LRU.
func (c *Cache) Get(source string, syntax Syntax) (*Expr, error) {
	e, _, _, err := c.get(context.Background(), cacheKey{syntax: syntax, source: source})
	return e, err
}

// GetInfo is Get reporting whether the result was served from a resident
// entry (a cache hit), so serving layers can label responses and account
// for compile costs per request. The flag agrees with the Stats counters:
// a Get that found the key in the map — even one that then waits on
// another goroutine's in-flight compile — is a hit.
func (c *Cache) GetInfo(source string, syntax Syntax) (expr *Expr, hit bool, err error) {
	expr, _, hit, err = c.get(context.Background(), cacheKey{syntax: syntax, source: source})
	return expr, hit, err
}

// GetInfoCtx is GetInfo with a cancellation escape hatch: a caller whose
// ctx expires while the compile is in flight stops waiting and receives a
// wrapped ctx.Err(). The compile itself is never canceled — it finishes in
// the background and its true result (success or error) is cached, so an
// impatient first caller does not poison the entry for everyone after it,
// and the single-flight guarantee is preserved. A ctx that cannot be
// canceled takes the exact GetInfo path.
func (c *Cache) GetInfoCtx(ctx context.Context, source string, syntax Syntax) (expr *Expr, hit bool, err error) {
	expr, _, hit, err = c.get(ctx, cacheKey{syntax: syntax, source: source})
	return expr, hit, err
}

// GetNumeric is Get through the numeric pipeline (CompileNumeric). Plain
// and numeric compilations of the same source are distinct cache entries.
func (c *Cache) GetNumeric(source string, syntax Syntax) (*NumericExpr, error) {
	_, nexp, _, err := c.get(context.Background(), cacheKey{syntax: syntax, source: source, numeric: true})
	return nexp, err
}

// GetNumericInfo is GetNumeric reporting cache-hit status, like GetInfo.
func (c *Cache) GetNumericInfo(source string, syntax Syntax) (nexp *NumericExpr, hit bool, err error) {
	_, nexp, hit, err = c.get(context.Background(), cacheKey{syntax: syntax, source: source, numeric: true})
	return nexp, hit, err
}

// GetNumericInfoCtx is GetNumericInfo with the GetInfoCtx cancellation
// contract: waiting is abandonable, the compile itself is not.
func (c *Cache) GetNumericInfoCtx(ctx context.Context, source string, syntax Syntax) (nexp *NumericExpr, hit bool, err error) {
	_, nexp, hit, err = c.get(ctx, cacheKey{syntax: syntax, source: source, numeric: true})
	return nexp, hit, err
}

// get finds or creates the entry for key and returns its compile result.
// The caller that creates an entry compiles it: inline when ctx cannot be
// canceled, else in a goroutine, so the caller can stop waiting without
// abandoning the compile. A hit on a resolved entry returns its result even
// when ctx has expired. Any other caller whose ctx has expired, or expires
// while it waits, gets only the wrapped ctx.Err() — a creator with an
// expired ctx never sees its own compile's result, however fast it is.
func (c *Cache) get(ctx context.Context, key cacheKey) (*Expr, *NumericExpr, bool, error) {
	c.mu.Lock()
	e, hit := c.m[key]
	if hit {
		c.hits++
		if e.prev != nil {
			l := c.list(e)
			l.remove(e)
			l.pushFront(e)
		}
	} else {
		c.misses++
		e = &cacheEntry{key: key, done: make(chan struct{})}
		c.m[key] = e
	}
	c.mu.Unlock()
	switch {
	case hit:
		select {
		case <-e.done:
			return e.expr, e.nexp, true, e.err
		default:
		}
	case ctx.Done() == nil:
		c.compile(e)
	default:
		go c.compile(e)
	}
	if ctx.Err() == nil {
		select {
		case <-e.done:
			return e.expr, e.nexp, hit, e.err
		case <-ctx.Done():
		}
	}
	return nil, nil, hit, fmt.Errorf("dregex: compile wait abandoned: %w", ctx.Err())
}

// compile resolves a new entry, places it on the list its outcome selects
// and enforces that list's bound — so bad sources can only ever evict
// other bad sources — unless Purge dropped it mid-compile.
func (c *Cache) compile(e *cacheEntry) {
	if e.key.numeric {
		e.nexp, e.err = CompileNumeric(e.key.source, e.key.syntax)
	} else {
		e.expr, e.err = Compile(e.key.source, e.key.syntax)
	}
	c.mu.Lock()
	if c.m[e.key] == e {
		l := c.list(e)
		l.pushFront(e)
		if l.n > l.max {
			victim := l.root.prev
			l.remove(victim)
			delete(c.m, victim.key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// list returns the LRU list a resolved entry belongs on.
func (c *Cache) list(e *cacheEntry) *lruList {
	if e.err != nil {
		return &c.neg
	}
	return &c.pos
}

// Len returns the number of resident entries (compiled plus negative).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the hit/miss counters and residency.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   len(c.m),
		Negative:  c.neg.n,
		Evictions: c.evictions,
	}
}

// Purge empties the cache (counters are kept). Expressions already handed
// out remain valid; only future Gets recompile.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[cacheKey]*cacheEntry)
	c.pos.init()
	c.neg.init()
}
