package dregex

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCacheReturnsSharedExpr(t *testing.T) {
	c := NewCache(64)
	e1, err := c.Get("(a|b)*, c", DTD)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Get("(a|b)*, c", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("second Get must return the cached *Expr")
	}
	// Same source under the other syntax is a distinct key.
	if e3, err := c.Get("ab", Math); err != nil || e3 == e1 {
		t.Errorf("Math/DTD keys must be distinct (%v)", err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("Stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(8)
	if _, err := c.Get("(((", Math); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := c.Get("(((", Math); err == nil {
		t.Fatal("expected cached parse error")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("error entry not cached: %+v", st)
	}
}

func TestCacheNumericSeparateKeyspace(t *testing.T) {
	c := NewCache(64)
	if _, err := c.Get("a{2,3}", Math); err != ErrNumericIndicator {
		t.Fatalf("plain pipeline: err = %v, want ErrNumericIndicator", err)
	}
	n, err := c.GetNumeric("a{2,3}", Math)
	if err != nil {
		t.Fatalf("numeric pipeline: %v", err)
	}
	if !n.IsDeterministic() || !n.MatchText("aa") || n.MatchText("a") {
		t.Error("numeric semantics wrong through cache")
	}
	n2, _ := c.GetNumeric("a{2,3}", Math)
	if n2 != n {
		t.Error("GetNumeric must return the cached *NumericExpr")
	}
}

func TestCacheEviction(t *testing.T) {
	// Overflowing the cache must evict its least-recently-used entry,
	// and Len must never exceed the configured capacity.
	c := NewCache(16)
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("(a, b%d*)", i)
		if _, err := c.Get(src, DTD); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 16 {
		t.Errorf("Len = %d after overflow, want ≤ 16", n)
	}
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Errorf("Len = %d after Purge", n)
	}
}

func TestCacheHoldsCapacity(t *testing.T) {
	// The capacity is exact: as many distinct models as the cache holds
	// all stay resident, so fetching each twice compiles each once.
	c := NewCache(16)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 16; i++ {
			if _, err := c.Get(fmt.Sprintf("(a, b%d*)", i), DTD); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 16 || st.Hits != 16 || st.Evictions != 0 || st.Entries != 16 {
		t.Errorf("Stats = %+v, want 16 misses, 16 hits, 0 evictions, 16 entries", st)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// One recency order over all keys: touching a makes b the least
	// recently used, so d evicts b and nothing else.
	c := NewCache(3)
	for _, src := range []string{"a", "b", "c", "a", "d"} {
		if _, err := c.Get(src, Math); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("Stats = %+v, want 1 eviction, 3 entries", st)
	}
	for _, src := range []string{"a", "c", "d"} {
		if _, hit, err := c.GetInfo(src, Math); err != nil || !hit {
			t.Errorf("GetInfo(%q): hit=%v err=%v, want a hit", src, hit, err)
		}
	}
}

func TestCacheNegativeEntriesCannotEvictHot(t *testing.T) {
	// Failed compiles are cached in a segregated, separately bounded LRU:
	// however many distinct bad sources arrive, they evict only each
	// other, never a hot compiled expression.
	c := NewCache(16) // 16 compiled slots, 4 negative ones
	hot, err := c.Get("(a, b)", DTD)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 300
	for i := 0; i < bad; i++ {
		if _, err := c.Get(fmt.Sprintf("(((bad%d", i), Math); err == nil {
			t.Fatal("malformed source compiled")
		}
	}
	again, err := c.Get("(a, b)", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if again != hot {
		t.Fatal("bad sources evicted the hot compiled expression")
	}
	st := c.Stats()
	if st.Misses != bad+1 {
		t.Errorf("Misses = %d, want %d (hot entry compiled once)", st.Misses, bad+1)
	}
	// Residency stays bounded by the two lists' capacities.
	if st.Entries > 32 {
		t.Errorf("Entries = %d after negative churn, want ≤ 32", st.Entries)
	}
	if st.Negative == 0 || st.Negative > 16 {
		t.Errorf("Negative = %d, want in (0, 16]", st.Negative)
	}
	// A repeated bad source is still served from the negative cache.
	before := c.Stats().Misses
	if _, err := c.Get(fmt.Sprintf("(((bad%d", bad-1), Math); err == nil {
		t.Fatal("expected cached error")
	}
	if c.Stats().Misses != before {
		t.Error("recent bad source recompiled instead of hitting the negative cache")
	}
}

func TestCacheConcurrentOverlappingKeys(t *testing.T) {
	// Many goroutines hammer a small key set concurrently; -race must be
	// quiet, verdicts must be correct, and each key must compile once
	// (entries stay resident: capacity exceeds the key count, so nothing
	// is evicted).
	c := NewCache(256)
	sources := []string{
		"(title, author+, (section | appendix)*)",
		"(a|b)*, c",
		"para*",
		"(login, (query, page*)*, logout)",
		"(((", // error entries participate too
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				src := sources[(g+i)%len(sources)]
				e, err := c.Get(src, DTD)
				if src == "(((" {
					if err == nil {
						t.Error("malformed source compiled")
					}
					continue
				}
				if err != nil {
					t.Errorf("Get(%q): %v", src, err)
					return
				}
				m, err := e.Matcher(Auto)
				if err != nil {
					t.Errorf("Matcher(%q): %v", src, err)
					return
				}
				m.MatchSymbols([]string{"a", "c"})
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != len(sources) {
		t.Errorf("Entries = %d, want %d", st.Entries, len(sources))
	}
	if want := uint64(16 * 300); st.Hits+st.Misses != want {
		t.Errorf("Hits+Misses = %d, want %d", st.Hits+st.Misses, want)
	}
	if st.Misses != uint64(len(sources)) {
		t.Errorf("Misses = %d, want one per key (%d)", st.Misses, len(sources))
	}
}

func TestCacheGetInfoCtx(t *testing.T) {
	c := NewCache(64)

	// A non-cancelable ctx takes the plain path with identical semantics.
	e1, hit, err := c.GetInfoCtx(context.Background(), "(a|b)*, c", DTD)
	if err != nil || hit {
		t.Fatalf("first GetInfoCtx: hit=%v err=%v", hit, err)
	}
	e2, hit, err := c.GetInfoCtx(context.Background(), "(a|b)*, c", DTD)
	if err != nil || !hit || e2 != e1 {
		t.Fatalf("second GetInfoCtx: hit=%v err=%v shared=%v", hit, err, e1 == e2)
	}

	// A cancelable-but-live ctx still resolves resolved entries immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e3, hit, err := c.GetInfoCtx(ctx, "(a|b)*, c", DTD)
	if err != nil || !hit || e3 != e1 {
		t.Fatalf("live-ctx GetInfoCtx: hit=%v err=%v shared=%v", hit, err, e1 == e3)
	}
}

func TestCacheCtxAbandonDoesNotPoison(t *testing.T) {
	c := NewCache(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the creator abandons its own compile

	_, _, err := c.GetInfoCtx(ctx, "x, y, z", DTD)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait: err = %v, want wrapped context.Canceled", err)
	}

	// The compile proceeded in the background and cached its true result:
	// within a bounded window the entry resolves, and later Gets hit it
	// without a hint of the earlier abandonment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		e, hit, err := c.GetInfo("x, y, z", DTD)
		if err != nil {
			t.Fatalf("post-abandon GetInfo: %v", err)
		}
		if hit {
			if e == nil || !e.IsDeterministic() {
				t.Fatal("cached entry does not behave like a real compile")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background compile never resolved the entry")
		}
		time.Sleep(time.Millisecond)
	}

	// Same contract on the numeric pipeline, including negative results:
	// the abandoned waiter sees ctx.Err, later callers the cached compile
	// error — never a blend of the two.
	if _, _, err := c.GetNumericInfoCtx(ctx, "(((", Math); !errors.Is(err, context.Canceled) {
		t.Fatalf("numeric abandoned wait: err = %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, hit, err := c.GetNumericInfo("(((", Math)
		if hit {
			if err == nil {
				t.Fatal("cached negative entry lost its compile error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background numeric compile never resolved")
		}
		time.Sleep(time.Millisecond)
	}
}
