// The 56-byte Value the two-word layout replaced, copied verbatim from
// e81d47e's internal/tuple/value.go and codec.go (renamed with a ref
// prefix) as the oracle FuzzValueOps holds the compact Value to, the way
// overlog's evalref_test.go keeps the tree-walking interpreter. It is
// test code: no second value representation ships. Kind, the FNV fold
// and the varint sizes are shared, since they did not change.

package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

type refValue struct {
	kind Kind
	num  uint64 // int64 bits, uint64 ID, float64 bits, or bool (0/1)
	str  string
	list []refValue
}

var refNil = refValue{}

func refInt(v int64) refValue { return refValue{kind: KindInt, num: uint64(v)} }

func refID(v uint64) refValue { return refValue{kind: KindID, num: v} }

func refFloat(v float64) refValue { return refValue{kind: KindFloat, num: math.Float64bits(v)} }

func refStr(v string) refValue { return refValue{kind: KindStr, str: v} }

func refBool(v bool) refValue {
	var n uint64
	if v {
		n = 1
	}
	return refValue{kind: KindBool, num: n}
}

func refList(elems ...refValue) refValue { return refValue{kind: KindList, list: elems} }

func (v refValue) Kind() Kind { return v.kind }

func (v refValue) IsNil() bool { return v.kind == KindNil }

func (v refValue) AsInt() int64 { return int64(v.num) }

func (v refValue) AsID() uint64 { return v.num }

func (v refValue) AsFloat() float64 { return math.Float64frombits(v.num) }

func (v refValue) AsStr() string { return v.str }

func (v refValue) AsBool() bool { return v.num != 0 }

func (v refValue) AsList() []refValue { return v.list }

func (v refValue) Numeric() bool {
	return v.kind == KindInt || v.kind == KindID || v.kind == KindFloat
}

func (v refValue) toFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindID:
		return float64(v.num)
	case KindFloat:
		return math.Float64frombits(v.num)
	}
	return math.NaN()
}

func (v refValue) Equal(o refValue) bool {
	if v.Numeric() && o.Numeric() {
		if v.kind == KindFloat || o.kind == KindFloat {
			return v.toFloat() == o.toFloat()
		}
		// int vs id: compare as the unsigned bit pattern only when
		// both are non-negative ints or ids.
		if v.kind == KindInt && int64(v.num) < 0 && o.kind == KindID {
			return false
		}
		if o.kind == KindInt && int64(o.num) < 0 && v.kind == KindID {
			return false
		}
		return v.num == o.num
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindStr:
		return v.str == o.str
	case KindBool:
		return v.num == o.num
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
	}
	return v.num == o.num
}

func (v refValue) Compare(o refValue) int {
	if v.Numeric() && o.Numeric() {
		if v.kind == KindID && o.kind == KindID {
			switch {
			case v.num < o.num:
				return -1
			case v.num > o.num:
				return 1
			}
			return 0
		}
		a, b := v.toFloat(), o.toFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindStr:
		return strings.Compare(v.str, o.str)
	case KindBool:
		return int(v.num) - int(o.num)
	case KindList:
		for i := 0; i < len(v.list) && i < len(o.list); i++ {
			if c := v.list[i].Compare(o.list[i]); c != 0 {
				return c
			}
		}
		return len(v.list) - len(o.list)
	}
	return 0
}

func (v refValue) Hash() uint64 {
	return v.hashFold(FnvOffset64)
}

func (v refValue) hashFold(h uint64) uint64 {
	switch v.kind {
	case KindStr:
		h = fnvByte(h, byte(v.kind))
		h = fnvString(h, v.str)
	case KindList:
		h = fnvByte(h, byte(v.kind))
		for _, e := range v.list {
			h = e.hashFold(h)
		}
	default:
		k := byte(v.kind)
		n := v.num
		// Normalize numerics so Equal values hash equally.
		if v.kind == KindFloat {
			f := v.toFloat()
			if f == math.Trunc(f) && f >= 0 && f < 1e18 {
				n = uint64(f)
				k = byte(KindID)
			}
		} else if v.kind == KindInt && int64(v.num) >= 0 {
			k = byte(KindID)
		}
		h = fnvByte(h, k)
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(n>>(8*i)))
		}
	}
	return h
}

func (v refValue) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindID:
		// Hex literals parse back as ring IDs, so this round-trips.
		return "0x" + strconv.FormatUint(v.num, 16)
	case KindFloat:
		return strconv.FormatFloat(v.toFloat(), 'g', -1, 64)
	case KindStr:
		return strconv.Quote(v.str)
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

func refAdd(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindList || b.kind == KindList:
		var out []refValue
		if a.kind == KindList {
			out = append(out, a.list...)
		} else {
			out = append(out, a)
		}
		if b.kind == KindList {
			out = append(out, b.list...)
		} else {
			out = append(out, b)
		}
		return refList(out...), nil
	case a.kind == KindStr || b.kind == KindStr:
		return refStr(a.plain() + b.plain()), nil
	case a.kind == KindID || b.kind == KindID:
		return refID(a.asRing() + b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		return refFloat(a.toFloat() + b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return refInt(int64(a.num) + int64(b.num)), nil
	}
	return refNil, fmt.Errorf("cannot add %s and %s", a.kind, b.kind)
}

func (v refValue) plain() string {
	if v.kind == KindStr {
		return v.str
	}
	return v.String()
}

func (v refValue) asRing() uint64 {
	switch v.kind {
	case KindID:
		return v.num
	case KindInt:
		return uint64(int64(v.num))
	case KindFloat:
		// Toward zero, a negative as its two's complement; NaN, the
		// infinities and anything past either end of int64..uint64 at 2^63.
		f := math.Trunc(v.toFloat())
		switch {
		case math.IsNaN(f) || f < -(1<<63) || f >= 1<<64:
			return 1 << 63
		case f < 0:
			return -uint64(-f)
		}
		return uint64(f)
	}
	return 0
}

func refSub(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		return refID(a.asRing() - b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		if !a.Numeric() || !b.Numeric() {
			return refNil, fmt.Errorf("cannot subtract %s and %s", a.kind, b.kind)
		}
		return refFloat(a.toFloat() - b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return refInt(int64(a.num) - int64(b.num)), nil
	}
	return refNil, fmt.Errorf("cannot subtract %s and %s", a.kind, b.kind)
}

func refMul(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		return refID(a.asRing() * b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		if !a.Numeric() || !b.Numeric() {
			return refNil, fmt.Errorf("cannot multiply %s and %s", a.kind, b.kind)
		}
		return refFloat(a.toFloat() * b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return refInt(int64(a.num) * int64(b.num)), nil
	}
	return refNil, fmt.Errorf("cannot multiply %s and %s", a.kind, b.kind)
}

func refDiv(a, b refValue) (refValue, error) {
	if !a.Numeric() || !b.Numeric() {
		return refNil, fmt.Errorf("cannot divide %s and %s", a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		if b.num == 0 {
			return refNil, fmt.Errorf("integer division by zero")
		}
		return refInt(int64(a.num) / int64(b.num)), nil
	}
	if a.kind == KindID && (b.kind == KindID || b.kind == KindInt) {
		d := b.asRing()
		if d == 0 {
			return refNil, fmt.Errorf("id division by zero")
		}
		return refID(a.num / d), nil
	}
	d := b.toFloat()
	if d == 0 {
		return refNil, fmt.Errorf("division by zero")
	}
	return refFloat(a.toFloat() / d), nil
}

func refMod(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		d := b.asRing()
		if d == 0 {
			return refNil, fmt.Errorf("modulo by zero")
		}
		return refID(a.asRing() % d), nil
	case a.kind == KindInt && b.kind == KindInt:
		if b.num == 0 {
			return refNil, fmt.Errorf("modulo by zero")
		}
		return refInt(int64(a.num) % int64(b.num)), nil
	}
	return refNil, fmt.Errorf("cannot take %s %% %s", a.kind, b.kind)
}

func refShl(a, b refValue) (refValue, error) {
	if !a.Numeric() || !b.Numeric() {
		return refNil, fmt.Errorf("cannot shift %s by %s", a.kind, b.kind)
	}
	return refID(a.asRing() << (b.asRing() & 63)), nil
}

func refInInterval(k, lo, hi refValue, loOpen, hiOpen bool) bool {
	kk, a, b := k.asRing(), lo.asRing(), hi.asRing()
	if a == b {
		switch {
		case !loOpen && !hiOpen:
			return kk == a
		case loOpen && hiOpen:
			return kk != a
		default:
			return true // half-open degenerate interval = full ring
		}
	}
	// Distance clockwise from a.
	dk := kk - a // wrapping
	db := b - a
	switch {
	case loOpen && hiOpen:
		return dk > 0 && dk < db
	case loOpen && !hiOpen:
		return dk > 0 && dk <= db
	case !loOpen && hiOpen:
		return dk < db
	default:
		return dk <= db
	}
}

func (v refValue) Truth() bool {
	switch v.kind {
	case KindBool:
		return v.num != 0
	case KindNil:
		return false
	}
	return true
}

// refMarshal is Marshal over a name and reference fields.
func refMarshal(dst []byte, name string, fields []refValue) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(fields)))
	for _, f := range fields {
		dst = refAppendValue(dst, f)
	}
	return dst
}

func refAppendValue(dst []byte, v refValue) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNil:
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindID:
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindStr:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case KindBool:
		b := byte(0)
		if v.num != 0 {
			b = 1
		}
		dst = append(dst, b)
	case KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.list)))
		for _, e := range v.list {
			dst = refAppendValue(dst, e)
		}
	}
	return dst
}

// refEncodedSize is EncodedSize over a name and reference fields.
func refEncodedSize(name string, fields []refValue) int {
	n := uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(len(fields)))
	for _, f := range fields {
		n += refValueSize(f)
	}
	return n
}

func refValueSize(v refValue) int {
	switch v.kind {
	case KindInt:
		return 1 + varintLen(int64(v.num))
	case KindID, KindFloat:
		return 1 + 8
	case KindStr:
		return 1 + uvarintLen(uint64(len(v.str))) + len(v.str)
	case KindBool:
		return 1 + 1
	case KindList:
		n := 1 + uvarintLen(uint64(len(v.list)))
		for _, e := range v.list {
			n += refValueSize(e)
		}
		return n
	}
	return 1 // KindNil and unknown kinds: the kind byte alone
}

func (v refValue) sizeBytes() int {
	n := 40
	switch v.kind {
	case KindStr:
		n += len(v.str)
	case KindList:
		for _, e := range v.list {
			n += e.sizeBytes()
		}
	}
	return n
}
