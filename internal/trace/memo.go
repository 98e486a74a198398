package trace

import "math/bits"

// idTable finds the memo entry of a tuple ID: an open-addressed table of
// memo slot numbers, linear probing from a multiplicative hash of the
// ID, deletion by backward shift (no tombstones), at most half full. A
// cell holds its slot number plus one, 0 when empty, and the ID it is
// filed under is the one in that memo entry, so a cell is four bytes
// and any ID, 0 too, is a key. The node's counter issues IDs in
// sequence; Fibonacci hashing spreads such runs over the cells.
type idTable struct {
	cells []uint32 // len a power of two, or 0
	shift uint     // 64 - log2(len(cells))
	n     int
}

func (t *idTable) home(id uint64) int { return int(id * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns the cell holding id, its memo slot and true, or the empty
// cell a put of id takes (-1 before the first put) and false.
func (t *idTable) find(slots []memoEntry, id uint64) (int, uint32, bool) {
	if len(t.cells) == 0 {
		return -1, 0, false
	}
	for p := t.home(id); ; p = (p + 1) & (len(t.cells) - 1) {
		if c := t.cells[p]; c == 0 || slots[c-1].id == id {
			return p, c - 1, c != 0
		}
	}
}

// put files memo slot i, whose entry holds its ID already, in cell p,
// which find returned for that ID.
func (t *idTable) put(slots []memoEntry, p int, i uint32) {
	if 2*(t.n+1) > len(t.cells) {
		old := t.cells
		t.cells = make([]uint32, max(2*len(old), 16))
		t.shift = uint(65 - bits.Len(uint(len(t.cells))))
		for _, c := range old {
			if c != 0 {
				q, _, _ := t.find(slots, slots[c-1].id)
				t.cells[q] = c
			}
		}
		p, _, _ = t.find(slots, slots[i].id)
	}
	t.cells[p] = i + 1
	t.n++
}

// del empties cell p and shifts back the cells after it whose home is
// at or before it, so every ID stays reachable from its home.
func (t *idTable) del(slots []memoEntry, p int) {
	mask := len(t.cells) - 1
	for q := (p + 1) & mask; t.cells[q] != 0; q = (q + 1) & mask {
		if c := t.cells[q]; (q-t.home(slots[c-1].id))&mask >= (q-p)&mask {
			t.cells[p], p = c, q
		}
	}
	t.cells[p] = 0
	t.n--
}
