package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The wire format used by the network postamble/preamble:
//
//	tuple  := nameLen(uvarint) name fieldCount(uvarint) value*
//	value  := kind(byte) payload
//	payload:
//	  int    varint
//	  id     8 bytes little-endian
//	  float  8 bytes little-endian (IEEE-754 bits)
//	  str    len(uvarint) bytes
//	  bool   1 byte
//	  list   count(uvarint) value*
//	  nil    (empty)
//
// The codec is self-describing and versionless; it exists so that the
// simulated network can bill realistic byte counts and so that the real
// UDP transport in cmd/p2node interoperates between processes.

// Marshal appends the wire encoding of t to dst and returns the result.
// Tuple IDs are not marshaled: they are node-local (the receiving node
// assigns its own ID, recording the source node and source ID in
// tupleTable; that pair travels in the message envelope, not here).
func Marshal(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.Name)))
	dst = append(dst, t.Name...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Fields)))
	for _, f := range t.Fields {
		dst = appendValue(dst, f)
	}
	return dst
}

func appendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindNil:
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.n))
	case KindID:
		dst = binary.LittleEndian.AppendUint64(dst, v.n)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.n)
	case KindStr:
		s := v.str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case KindBool:
		b := byte(0)
		if v.n != 0 {
			b = 1
		}
		dst = append(dst, b)
	case KindList:
		l := v.list()
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		for _, e := range l {
			dst = appendValue(dst, e)
		}
	}
	return dst
}

// EncodedSize returns the exact number of bytes Marshal will append for
// t, computed without allocating. Senders use it to size their marshal
// buffers up front instead of growing them append by append.
func EncodedSize(t Tuple) int {
	n := uvarintLen(uint64(len(t.Name))) + len(t.Name) + uvarintLen(uint64(len(t.Fields)))
	for _, f := range t.Fields {
		n += valueSize(f)
	}
	return n
}

func valueSize(v Value) int {
	switch v.Kind() {
	case KindInt:
		return 1 + varintLen(int64(v.n))
	case KindID, KindFloat:
		return 1 + 8
	case KindStr:
		s := v.str()
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	case KindBool:
		return 1 + 1
	case KindList:
		l := v.list()
		n := 1 + uvarintLen(uint64(len(l)))
		for _, e := range l {
			n += valueSize(e)
		}
		return n
	}
	return 1 // KindNil and unknown kinds: the kind byte alone
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int {
	ux := uint64(x) << 1 // zig-zag, as binary.AppendVarint encodes
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// Unmarshal decodes one tuple from b, returning the tuple and the number
// of bytes consumed. The tuple's fields are a fresh heap slice, and its
// strings are its own: nothing is interned.
func Unmarshal(b []byte) (Tuple, int, error) {
	t, _, n, err := UnmarshalAppend(nil, nil, b)
	return t, n, err
}

// UnmarshalAppend is Unmarshal into caller-owned storage: the decoded
// fields are appended to dst, the grown slice is returned, and the
// tuple's Fields are its tail past len(dst), capped there so appending
// to them cannot reach what dst receives next. On error dst comes back
// as it was. List values are always built on the heap, so a copy of a
// decoded Value never points into dst. Short strings, the name included,
// are in's canonical copies (Interner.Bytes).
func UnmarshalAppend(in *Interner, dst []Value, b []byte) (Tuple, []Value, int, error) {
	pos := 0
	nameLen, n := binary.Uvarint(b[pos:])
	if n <= 0 || nameLen > uint64(len(b)) || pos+n+int(nameLen) > len(b) {
		return Tuple{}, dst, 0, fmt.Errorf("tuple: short buffer decoding name")
	}
	pos += n
	name := in.Bytes(b[pos : pos+int(nameLen)])
	pos += int(nameLen)
	count, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return Tuple{}, dst, 0, fmt.Errorf("tuple: short buffer decoding arity")
	}
	if count > uint64(len(b)) {
		return Tuple{}, dst, 0, fmt.Errorf("tuple: implausible arity %d", count)
	}
	pos += n
	out := slices.Grow(dst, int(count))
	for i := uint64(0); i < count; i++ {
		v, n, err := decodeValue(in, b[pos:])
		if err != nil {
			clear(out[len(dst):])
			return Tuple{}, dst, 0, fmt.Errorf("tuple: field %d: %w", i, err)
		}
		pos += n
		out = append(out, v)
	}
	return Tuple{Name: name, Fields: out[len(dst):len(out):len(out)]}, out, pos, nil
}

func decodeValue(in *Interner, b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Nil, 0, fmt.Errorf("short buffer decoding kind")
	}
	kind := Kind(b[0])
	pos := 1
	switch kind {
	case KindNil:
		return Nil, pos, nil
	case KindInt:
		v, n := binary.Varint(b[pos:])
		if n <= 0 {
			return Nil, 0, fmt.Errorf("short buffer decoding int")
		}
		return Int(v), pos + n, nil
	case KindID, KindFloat:
		if len(b) < pos+8 {
			return Nil, 0, fmt.Errorf("short buffer decoding %s", kind)
		}
		u := binary.LittleEndian.Uint64(b[pos:])
		if kind == KindID {
			return ID(u), pos + 8, nil
		}
		return Float(math.Float64frombits(u)), pos + 8, nil
	case KindStr:
		l, n := binary.Uvarint(b[pos:])
		if n <= 0 || l > uint64(len(b)) || pos+n+int(l) > len(b) {
			return Nil, 0, fmt.Errorf("short buffer decoding str")
		}
		pos += n
		return Str(in.Bytes(b[pos : pos+int(l)])), pos + int(l), nil
	case KindBool:
		if len(b) < pos+1 {
			return Nil, 0, fmt.Errorf("short buffer decoding bool")
		}
		return Bool(b[pos] != 0), pos + 1, nil
	case KindList:
		count, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return Nil, 0, fmt.Errorf("short buffer decoding list")
		}
		if count > uint64(len(b)) {
			return Nil, 0, fmt.Errorf("implausible list length %d", count)
		}
		pos += n
		elems := make([]Value, 0, count)
		for i := uint64(0); i < count; i++ {
			e, n, err := decodeValue(in, b[pos:])
			if err != nil {
				return Nil, 0, err
			}
			pos += n
			elems = append(elems, e)
		}
		return List(elems...), pos, nil
	}
	return Nil, 0, fmt.Errorf("unknown value kind %d", kind)
}
