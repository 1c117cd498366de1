package cache

import (
	"context"
	"fmt"
	"testing"
)

func TestKeyStability(t *testing.T) {
	k1 := Key("deadbeef", "v1 mode=cpr")
	k2 := Key("deadbeef", "v1 mode=cpr")
	if k1 != k2 {
		t.Fatalf("identical inputs produced different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key is not hex sha256: %q", k1)
	}
	if Key("deadbeef", "v1 mode=ilp") == k1 {
		t.Fatal("different fingerprints collided")
	}
	if Key("cafef00d", "v1 mode=cpr") == k1 {
		t.Fatal("different design hashes collided")
	}
	// The separator prevents boundary ambiguity between hash and
	// fingerprint.
	if Key("ab", "cd") == Key("abc", "d") {
		t.Fatal("hash/fingerprint boundary is ambiguous")
	}
}

func TestRouteKeyDomainSeparation(t *testing.T) {
	// The same hash/fingerprint pair must address different blocks at
	// each level: the tags keep the keyspaces disjoint.
	k1 := Key("hash", "fp")
	k2 := PanelKey("hash", "fp")
	k3 := RouteKey("hash", "fp")
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("keyspaces collide: %s %s %s", k1, k2, k3)
	}
	if RouteKey("hash", "fp") != k3 {
		t.Fatal("RouteKey is not stable")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New[int](8)
	if _, ok := c.Get(context.Background(), "a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get(context.Background(), "a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get(context.Background(), "a") // promote a; b is now LRU
	c.Put("c", 3)
	if c.Contains("b") {
		t.Fatal("b should have been evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("a and c should survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestCachePutReplace(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if v, _ := c.Get(context.Background(), "a"); v != 9 {
		t.Fatalf("replaced value = %d, want 9", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestContainsDoesNotTouchCounters: Contains is the re-warm probe used
// by jobs.SubmitBase; it must not distort the hit/miss accounting that
// /v1/stats reports, nor refresh LRU recency, on a memory-only or a
// backed cache.
func TestContainsDoesNotTouchCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(capacity int) *Cache[string]
	}{
		{"memory", New[string]},
		{"backed", func(capacity int) *Cache[string] {
			return NewBacked[string](capacity, newMemSource(), strEnc, strDec, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.new(4)
			c.Put("k", "1")
			for i := 0; i < 5; i++ {
				if !c.Contains("k") || c.Contains("missing") {
					t.Fatal("Contains gave wrong answers")
				}
			}
			st := c.Stats()
			if st.Hits != 0 || st.Misses != 0 {
				t.Errorf("Contains touched counters: %+v", st)
			}
			// Contains must not promote: k becomes LRU after newer
			// entries.
			c.Put("a", "2")
			c.Put("b", "3")
			c.Put("c", "4")
			c.Contains("k")
			c.Put("d", "5") // evicts k from memory
			if inMemory(c, "k") {
				t.Error("Contains promoted k in LRU order")
			}
		})
	}
}

// TestDefaultCapacity: non-positive capacities take the package default
// rather than creating an unbounded or zero-size cache.
func TestDefaultCapacity(t *testing.T) {
	for _, c := range []*Cache[int]{
		New[int](0),
		New[int](-1),
		NewBacked[int](0, nil, nil, nil, nil),
	} {
		if c.cap != 1024 {
			t.Fatalf("capacity = %d, want the default 1024", c.cap)
		}
		for i := 0; i < 1030; i++ {
			c.Put(fmt.Sprintf("k%d", i), i)
		}
		if n := c.Len(); n != 1024 {
			t.Errorf("cache holds %d entries, want 1024", n)
		}
	}
}

// TestEmptyKeyNeverStored: Put drops an empty key on a memory-only cache
// too, and a Get of it is a plain miss.
func TestEmptyKeyNeverStored(t *testing.T) {
	c := New[int](4)
	c.Put("", 1)
	if c.Len() != 0 || c.Contains("") {
		t.Fatal("empty key was stored")
	}
	if _, ok := c.Get(context.Background(), ""); ok {
		t.Fatal("empty key hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss", st)
	}
}
