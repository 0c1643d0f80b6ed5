package btree

import (
	"encoding/binary"
	"fmt"

	"vamana/internal/pager"
)

// Page type tags.
const (
	pageLeaf   = byte('L')
	pageBranch = byte('B')
)

// Serialized header sizes.
const (
	leafHeaderSize   = 1 + 2 + 4 + 4 // type, nkeys, next, prev
	branchHeaderSize = 1 + 2         // type, nchildren
	childRefSize     = 4 + 8         // page id, subtree count
)

// maxInlineValue is the largest value stored inline in a leaf entry. Longer
// values are spilled to a chain of overflow pages so that any entry fits in
// a page with room to spare.
const maxInlineValue = 2048

// maxKeySize bounds key length so that a branch page can always hold at
// least four separators.
const maxKeySize = 1024

// node is the in-memory form of a B+-tree page. Leaves hold sorted
// key/value entries plus sibling links; branches hold child references with
// subtree entry counts and the separator keys between them
// (keys[i] is the minimum key of the subtree under children[i+1]).
type node struct {
	id    pager.PageID
	leaf  bool
	dirty bool

	// leaf fields
	keys [][]byte
	vals []leafValue
	next pager.PageID
	prev pager.PageID

	// branch fields; len(keys) == len(children)-1 when branch
	children []pager.PageID
	counts   []uint64

	bytes int // current serialized size estimate
}

// leafValue is either an inline value or a reference to an overflow chain.
type leafValue struct {
	inline   []byte
	overflow pager.PageID // InvalidPage when inline
	totalLen int          // length of the full value when overflow
}

func (v leafValue) isOverflow() bool { return v.overflow != pager.InvalidPage }

func leafEntrySize(k []byte, v leafValue) int {
	n := uvarintLen(uint64(len(k))) + len(k)
	if v.isOverflow() {
		return n + uvarintLen(uint64(v.totalLen)<<1|1) + 4
	}
	return n + uvarintLen(uint64(len(v.inline))<<1) + len(v.inline)
}

func branchEntrySize(sep []byte) int {
	return uvarintLen(uint64(len(sep))) + len(sep) + childRefSize
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// subtreeCount returns the number of entries under n.
func (n *node) subtreeCount() uint64 {
	if n.leaf {
		return uint64(len(n.keys))
	}
	var s uint64
	for _, c := range n.counts {
		s += c
	}
	return s
}

// serialize renders n into buf, which must be pager.PageSize long. A
// node that does not fit is an error, never a silently truncated page.
func (n *node) serialize(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		if len(n.keys) > 0xFFFF {
			return fmt.Errorf("btree: leaf %d has %d keys", n.id, len(n.keys))
		}
		buf[0] = pageLeaf
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
		binary.LittleEndian.PutUint32(buf[3:7], uint32(n.next))
		binary.LittleEndian.PutUint32(buf[7:11], uint32(n.prev))
		off := leafHeaderSize
		for i, k := range n.keys {
			v := n.vals[i]
			if off+leafEntrySize(k, v) > len(buf) {
				return fmt.Errorf("btree: leaf %d overflows page (%d bytes)", n.id, n.bytes)
			}
			off += binary.PutUvarint(buf[off:], uint64(len(k)))
			off += copy(buf[off:], k)
			if v.isOverflow() {
				off += binary.PutUvarint(buf[off:], uint64(v.totalLen)<<1|1)
				binary.LittleEndian.PutUint32(buf[off:off+4], uint32(v.overflow))
				off += 4
			} else {
				off += binary.PutUvarint(buf[off:], uint64(len(v.inline))<<1)
				off += copy(buf[off:], v.inline)
			}
		}
		return nil
	}
	if len(n.children) > 0xFFFF {
		return fmt.Errorf("btree: branch %d has %d children", n.id, len(n.children))
	}
	buf[0] = pageBranch
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.children)))
	off := branchHeaderSize
	for i, c := range n.children {
		if i > 0 {
			sep := n.keys[i-1]
			if off+branchEntrySize(sep) > len(buf) {
				return fmt.Errorf("btree: branch %d overflows page (%d bytes)", n.id, n.bytes)
			}
			off += binary.PutUvarint(buf[off:], uint64(len(sep)))
			off += copy(buf[off:], sep)
		}
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(c))
		binary.LittleEndian.PutUint64(buf[off+4:off+12], n.counts[i])
		off += childRefSize
	}
	return nil
}

// deserialize parses buf into n (which must have id set).
func (n *node) deserialize(buf []byte) error {
	switch buf[0] {
	case pageLeaf:
		n.leaf = true
		nk := int(binary.LittleEndian.Uint16(buf[1:3]))
		n.next = pager.PageID(binary.LittleEndian.Uint32(buf[3:7]))
		n.prev = pager.PageID(binary.LittleEndian.Uint32(buf[7:11]))
		n.keys = make([][]byte, 0, nk)
		n.vals = make([]leafValue, 0, nk)
		off := leafHeaderSize
		n.bytes = leafHeaderSize
		for i := 0; i < nk; i++ {
			klen, w := binary.Uvarint(buf[off:])
			if w <= 0 || off+w+int(klen) > len(buf) {
				return fmt.Errorf("btree: corrupt leaf %d", n.id)
			}
			off += w
			k := append([]byte(nil), buf[off:off+int(klen)]...)
			off += int(klen)
			vinfo, w := binary.Uvarint(buf[off:])
			if w <= 0 {
				return fmt.Errorf("btree: corrupt leaf %d", n.id)
			}
			off += w
			var v leafValue
			if vinfo&1 == 1 {
				v.totalLen = int(vinfo >> 1)
				v.overflow = pager.PageID(binary.LittleEndian.Uint32(buf[off : off+4]))
				off += 4
			} else {
				vlen := int(vinfo >> 1)
				if off+vlen > len(buf) {
					return fmt.Errorf("btree: corrupt leaf %d", n.id)
				}
				v.inline = append([]byte(nil), buf[off:off+vlen]...)
				off += vlen
			}
			n.keys = append(n.keys, k)
			n.vals = append(n.vals, v)
			n.bytes += leafEntrySize(k, v)
		}
		return nil
	case pageBranch:
		n.leaf = false
		nc := int(binary.LittleEndian.Uint16(buf[1:3]))
		n.children = make([]pager.PageID, 0, nc)
		n.counts = make([]uint64, 0, nc)
		n.keys = make([][]byte, 0, nc-1)
		off := branchHeaderSize
		n.bytes = branchHeaderSize
		for i := 0; i < nc; i++ {
			if i > 0 {
				klen, w := binary.Uvarint(buf[off:])
				if w <= 0 || off+w+int(klen) > len(buf) {
					return fmt.Errorf("btree: corrupt branch %d", n.id)
				}
				off += w
				k := append([]byte(nil), buf[off:off+int(klen)]...)
				off += int(klen)
				n.keys = append(n.keys, k)
				n.bytes += branchEntrySize(k) - childRefSize
			}
			n.children = append(n.children, pager.PageID(binary.LittleEndian.Uint32(buf[off:off+4])))
			n.counts = append(n.counts, binary.LittleEndian.Uint64(buf[off+4:off+12]))
			off += childRefSize
			n.bytes += childRefSize
		}
		return nil
	default:
		return fmt.Errorf("btree: page %d has unknown type %q", n.id, buf[0])
	}
}
