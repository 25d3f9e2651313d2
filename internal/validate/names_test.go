package validate

import (
	"fmt"
	"testing"
)

// TestNameTable interns, looks up and resets across growth: ids are dense
// in arrival order, lookups miss names never interned, and a reset table
// starts again at id 0 without remembering the old names.
func TestNameTable(t *testing.T) {
	var tab nameTable
	if got := tab.lookup([]byte("a")); got != -1 {
		t.Fatalf("lookup on an empty table = %d, want -1", got)
	}
	for round := 0; round < 3; round++ {
		n := 10 + 400*round // several growths, then a reset from a large table
		for i := 0; i < n; i++ {
			id, added := tab.intern([]byte(fmt.Sprintf("n%d", i)))
			if !added || id != int32(i) {
				t.Fatalf("round %d: intern n%d = %d, %v; want %d, true", round, i, id, added, i)
			}
		}
		for i := 0; i < n; i++ {
			name := []byte(fmt.Sprintf("n%d", i))
			if id, added := tab.intern(name); added || id != int32(i) {
				t.Fatalf("round %d: re-intern n%d = %d, %v", round, i, id, added)
			}
			if got := tab.lookup(name); got != int32(i) {
				t.Fatalf("round %d: lookup n%d = %d", round, i, got)
			}
			if got := string(tab.name(int32(i))); got != string(name) {
				t.Fatalf("round %d: name(%d) = %q", round, i, got)
			}
		}
		for _, miss := range []string{"", "n", fmt.Sprintf("n%d", n), "m0"} {
			if got := tab.lookup([]byte(miss)); got != -1 {
				t.Fatalf("round %d: lookup %q = %d, want -1", round, miss, got)
			}
		}
		tab.reset()
		if len(tab.ends) != 0 || len(tab.arena) != 0 {
			t.Fatalf("round %d: %d names left after reset", round, len(tab.ends))
		}
		for i := 0; i < n; i++ {
			if got := tab.lookup([]byte(fmt.Sprintf("n%d", i))); got != -1 {
				t.Fatalf("round %d: n%d survived reset as %d", round, i, got)
			}
		}
		for _, v := range tab.slots {
			if v != 0 {
				t.Fatalf("round %d: slot %d left set after reset", round, v)
			}
		}
	}
}

// TestIDTable maps ids to members, keeps the first member of a repeated
// id, and misses ids it never saw (and -1).
func TestIDTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		var tab idTable
		tab.init(n + 1)
		for m := 0; m < n; m++ {
			if got := tab.put(int32(3*m), int32(m)); got != int32(m) {
				t.Fatalf("n=%d: put %d = %d", n, 3*m, got)
			}
		}
		if got := tab.put(0, 99); got != 0 {
			t.Fatalf("n=%d: repeated put = %d, want the first member 0", n, got)
		}
		for m := 0; m < n; m++ {
			if got := tab.get(int32(3 * m)); got != int32(m) {
				t.Fatalf("n=%d: get %d = %d, want %d", n, 3*m, got, m)
			}
			if got := tab.get(int32(3*m + 1)); got != -1 {
				t.Fatalf("n=%d: get %d = %d, want -1", n, 3*m+1, got)
			}
		}
		if got := tab.get(-1); got != -1 {
			t.Fatalf("n=%d: get -1 = %d", n, got)
		}
	}
	var empty idTable
	if got := empty.get(0); got != -1 {
		t.Fatalf("empty table get = %d", got)
	}
}
