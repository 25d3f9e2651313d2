package validate

import (
	"hash/maphash"
	"slices"
)

// nameTable interns byte strings into dense int32 ids: a schema's element
// names, or a document's ID values. Names are stored back to back in one
// arena and indexed by an open-addressed []int32 slot array (a slot holds
// id+1, 0 is empty) kept at most half full, so a lookup is one seeded hash
// of the name plus, on average, about one byte comparison. Memory is
// O(total name bytes + names) at every size.
//
// The hash is seeded per table: document IDs come from request bodies, and
// an unseeded hash could be flooded with colliding values.
type nameTable struct {
	seed  maphash.Seed
	arena []byte
	// ends[id] is the arena offset just past name id; it starts where name
	// id-1 ends.
	ends  []int32
	slots []int32
}

// name returns the bytes of name id (aliasing the arena).
func (t *nameTable) name(id int32) []byte {
	lo := int32(0)
	if id > 0 {
		lo = t.ends[id-1]
	}
	return t.arena[lo:t.ends[id]]
}

// lookup returns the id of name, or -1 when it was never interned.
//
//dregex:noalloc
func (t *nameTable) lookup(name []byte) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, name) & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return -1
		}
		if string(t.name(v-1)) == string(name) {
			return v - 1
		}
	}
}

// intern returns the id of name, adding it when absent; added reports
// whether it was. The bytes are copied into the arena, so name may alias
// scratch that changes afterwards. Once the table has grown to a
// document's size, intern allocates nothing.
//
//dregex:noalloc
func (t *nameTable) intern(name []byte) (id int32, added bool) {
	if 2*(len(t.ends)+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	mask := uint64(len(t.slots) - 1)
	i := maphash.Bytes(t.seed, name) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if v := t.slots[i]; string(t.name(v-1)) == string(name) {
			return v - 1, false
		}
	}
	id = int32(len(t.ends))
	t.arena = append(t.arena, name...)
	t.ends = append(t.ends, int32(len(t.arena)))
	t.slots[i] = id + 1
	return id, true
}

// reserve sizes the table for n names in all, so interning them neither
// re-slots nor regrows the id arrays.
func (t *nameTable) reserve(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
	if n > len(t.ends) {
		t.ends = slices.Grow(t.ends, n-len(t.ends))
	}
}

// resize gives the table size slots (a power of two; at least 16),
// seeding it on first use, and re-slots every name.
//
//dregex:coldalloc
func (t *nameTable) resize(size int) {
	if len(t.slots) == 0 {
		t.seed = maphash.MakeSeed()
	}
	t.slots = make([]int32, max(size, 16))
	mask := uint64(len(t.slots) - 1)
	for id := range t.ends {
		i := maphash.Bytes(t.seed, t.name(int32(id))) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// reset empties the table in time proportional to the names it holds,
// keeping the arena, the slots and the seed. Names leave in reverse order
// of arrival: every slot on the probe path of the newest name was taken
// before it arrived (or by an older name, when growth re-slotted them in
// id order), so that path is intact when the newest name is cleared.
//
//dregex:noalloc
func (t *nameTable) reset() {
	mask := uint64(len(t.slots) - 1)
	for id := int32(len(t.ends)) - 1; id >= 0; id-- {
		i := maphash.Bytes(t.seed, t.name(id)) & mask
		for t.slots[i] != id+1 {
			i = (i + 1) & mask
		}
		t.slots[i] = 0
	}
	t.arena, t.ends = t.arena[:0], t.ends[:0]
}

// idTable maps schema name ids to small member indices: the child names
// one content admits. It has the shape of nameTable's slots — open
// addressing over one []int32 — with (id+1, member) pairs in place of ids,
// so a probe is a multiply, a shift and a few integer comparisons; with no
// bytes to compare it may fill to three quarters. The keys are the
// schema's own ids, not document bytes, so the hash needs no seed.
type idTable struct {
	pairs []int32
	shift uint8
}

// fibMul spreads consecutive ids over the table (Fibonacci hashing).
const fibMul = 0x9E3779B9

// get returns the member index of id, or -1 when the content does not
// admit it (or id is -1: a name outside the schema).
//
//dregex:noalloc
func (t *idTable) get(id int32) int32 {
	if len(t.pairs) == 0 || id < 0 {
		return -1
	}
	mask := uint32(len(t.pairs)/2 - 1)
	for i := uint32(id) * fibMul >> t.shift; ; i = (i + 1) & mask {
		switch t.pairs[2*i] {
		case id + 1:
			return t.pairs[2*i+1]
		case 0:
			return -1
		}
	}
}

// init empties the table and sizes it for up to n keys.
func (t *idTable) init(n int) {
	if n == 0 {
		t.pairs, t.shift = nil, 0
		return
	}
	bits := uint8(1)
	for 3<<bits < 4*n {
		bits++
	}
	t.pairs, t.shift = make([]int32, 2<<bits), 32-bits
}

// put maps id to member m unless id is already present; it returns the
// member id maps to. The table must have room (see init).
func (t *idTable) put(id, m int32) int32 {
	mask := uint32(len(t.pairs)/2 - 1)
	i := uint32(id) * fibMul >> t.shift
	for ; t.pairs[2*i] != 0; i = (i + 1) & mask {
		if t.pairs[2*i] == id+1 {
			return t.pairs[2*i+1]
		}
	}
	t.pairs[2*i], t.pairs[2*i+1] = id+1, m
	return m
}
