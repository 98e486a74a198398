// Package tuple implements the relational data model underlying the P2
// engine: dynamically typed values, immutable named tuples, node-unique
// tuple IDs, and a compact binary codec used by the network postamble.
//
// Tuples represent both soft state (rows in materialized tables) and
// messages between nodes. By convention the first field of every tuple is
// its location specifier: the address of the node where the tuple lives or
// must be delivered (written pred@NAddr(...) in OverLog).
package tuple

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types an OverLog value can take.
type Kind uint8

const (
	// KindNil is the zero Value; it unifies with nothing and marks
	// unbound variable slots inside the dataflow.
	KindNil Kind = iota
	// KindInt is a signed 64-bit integer.
	KindInt
	// KindID is an unsigned 64-bit identifier on the Chord ring; ring
	// arithmetic (wraparound subtraction, interval membership) applies.
	KindID
	// KindFloat is a 64-bit float. Timestamps (f_now) are floats in
	// seconds.
	KindFloat
	// KindStr is a UTF-8 string. Node addresses are strings.
	KindStr
	// KindBool is a boolean.
	KindBool
	// KindList is an ordered list of values (used e.g. for paths).
	KindList
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindID:
		return "id"
	case KindFloat:
		return "float"
	case KindStr:
		return "str"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed OverLog value. The zero Value is nil.
// Values are immutable; all operations return new Values.
//
// A Value is two words, a pointer p and a payload n:
//   - nil: p is nil and n is 0;
//   - int, id, float, bool: p points at kindTags[kind] and n holds the
//     int64 bits, the uint64 ID, the float64 bits, or 0/1;
//   - str, list: p is the string's bytes or the list's elements and n is
//     the length with the kind in its top byte. An empty one points at
//     emptyData, so it is never mistaken for nil.
//
// p is read as string or element data only after the kind says it is
// one. The zero-length func array makes == a compile error: it would
// compare data pointers, not contents.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

const (
	kindShift = 56
	lenMask   = 1<<kindShift - 1
)

var (
	// kindTags gives each scalar kind an address; a scalar's p points
	// into it and its offset is the kind.
	kindTags [KindList + 1]byte
	// emptyData is what an empty string or list points at.
	emptyData byte
)

// Nil is the nil value.
var Nil = Value{}

func scalar(k Kind, n uint64) Value { return Value{p: unsafe.Pointer(&kindTags[k]), n: n} }

// sized is a string or list value over n elements starting at p.
func sized(k Kind, p unsafe.Pointer, n int) Value {
	if n == 0 {
		p = unsafe.Pointer(&emptyData)
	}
	return Value{p: p, n: uint64(n) | uint64(k)<<kindShift}
}

// Int returns an integer value.
func Int(v int64) Value { return scalar(KindInt, uint64(v)) }

// ID returns a ring-identifier value.
func ID(v uint64) Value { return scalar(KindID, v) }

// Float returns a floating-point value.
func Float(v float64) Value { return scalar(KindFloat, math.Float64bits(v)) }

// Str returns a string value.
func Str(v string) Value { return sized(KindStr, unsafe.Pointer(unsafe.StringData(v)), len(v)) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return scalar(KindBool, n)
}

// List returns a list value holding the given elements. The slice is not
// copied; callers must not mutate it afterwards.
func List(elems ...Value) Value {
	return sized(KindList, unsafe.Pointer(unsafe.SliceData(elems)), len(elems))
}

// tag is p's offset into kindTags: a scalar's kind, and len(kindTags)
// or more for anything else.
func (v Value) tag() uintptr { return uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)) }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind {
	if d := v.tag(); d < uintptr(len(kindTags)) {
		return Kind(d)
	}
	return Kind(v.n >> kindShift)
}

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.p == nil }

// bits is a scalar's payload, and 0 for nil, strings and lists.
func (v Value) bits() uint64 {
	if v.tag() < uintptr(len(kindTags)) {
		return v.n
	}
	return 0
}

// str is v's string; v must be a string.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n&lenMask) }

// list is v's elements; v must be a list. An empty list is nil: its p
// is the one-byte emptyData, which must not be read as a *Value.
func (v Value) list() []Value {
	if n := v.n & lenMask; n != 0 {
		return unsafe.Slice((*Value)(v.p), n)
	}
	return nil
}

// AsInt returns the integer payload; valid only for KindInt.
func (v Value) AsInt() int64 { return int64(v.bits()) }

// AsID returns the identifier payload; valid only for KindID.
func (v Value) AsID() uint64 { return v.bits() }

// AsFloat returns the float payload; valid only for KindFloat.
func (v Value) AsFloat() float64 { return math.Float64frombits(v.bits()) }

// AsStr returns the string payload, or "" if v is not a string.
func (v Value) AsStr() string {
	if v.Kind() != KindStr {
		return ""
	}
	return v.str()
}

// AsBool returns the boolean payload; valid only for KindBool.
func (v Value) AsBool() bool { return v.bits() != 0 }

// AsList returns the list payload, or nil if v is not a list or is
// empty. Callers must not mutate the returned slice.
func (v Value) AsList() []Value {
	if v.Kind() != KindList {
		return nil
	}
	return v.list()
}

func numeric(k Kind) bool { return k == KindInt || k == KindID || k == KindFloat }

// Numeric reports whether v is int, ID, or float.
func (v Value) Numeric() bool { return numeric(v.Kind()) }

// toFloat converts a numeric payload of kind k to float64.
func toFloat(k Kind, n uint64) float64 {
	switch k {
	case KindInt:
		return float64(int64(n))
	case KindID:
		return float64(n)
	case KindFloat:
		return math.Float64frombits(n)
	}
	return math.NaN()
}

// toFloat converts any numeric value to float64.
func (v Value) toFloat() float64 { return toFloat(v.Kind(), v.n) }

// Equal reports deep equality between two values. Numeric values of
// different kinds compare by numeric value (so Int(3) equals ID(3)), which
// matches OverLog's dynamically typed comparison semantics.
func (v Value) Equal(o Value) bool {
	vk, ok := v.Kind(), o.Kind()
	if numeric(vk) && numeric(ok) {
		if vk == KindFloat || ok == KindFloat {
			return toFloat(vk, v.n) == toFloat(ok, o.n)
		}
		// int vs id: compare as the unsigned bit pattern only when
		// both are non-negative ints or ids.
		if vk == KindInt && int64(v.n) < 0 && ok == KindID {
			return false
		}
		if ok == KindInt && int64(o.n) < 0 && vk == KindID {
			return false
		}
		return v.n == o.n
	}
	if vk != ok {
		return false
	}
	switch vk {
	case KindNil:
		return true
	case KindStr:
		return v.n == o.n && (v.p == o.p || v.str() == o.str())
	case KindList:
		if v.n != o.n {
			return false
		}
		ol := o.list()
		for i, e := range v.list() {
			if !e.Equal(ol[i]) {
				return false
			}
		}
		return true
	}
	return v.n == o.n
}

// Compare orders two values: negative if v < o, zero if equal, positive if
// v > o. Values of different kinds order by kind; numerics order by value.
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind(), o.Kind()
	if numeric(vk) && numeric(ok) {
		if vk == KindID && ok == KindID {
			switch {
			case v.n < o.n:
				return -1
			case v.n > o.n:
				return 1
			}
			return 0
		}
		a, b := toFloat(vk, v.n), toFloat(ok, o.n)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if vk != ok {
		return int(vk) - int(ok)
	}
	switch vk {
	case KindStr:
		return strings.Compare(v.str(), o.str())
	case KindBool:
		return int(v.n) - int(o.n)
	case KindList:
		vl, ol := v.list(), o.list()
		for i := 0; i < len(vl) && i < len(ol); i++ {
			if c := vl[i].Compare(ol[i]); c != 0 {
				return c
			}
		}
		return len(vl) - len(ol)
	}
	return 0
}

// Hash returns a 64-bit FNV-1a hash of the value, consistent with Equal
// for same-kind values.
func (v Value) Hash() uint64 {
	return v.hashFold(FnvOffset64)
}

// FNV-1a 64-bit parameters. Hashing is a pure fold over these (no
// hash.Hash64 allocation): index probes and aggregate grouping keys sit
// on the engine's hot path. The byte stream matches hash/fnv exactly.
const (
	FnvOffset64        = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func (v Value) hashFold(h uint64) uint64 {
	vk := v.Kind()
	switch vk {
	case KindStr:
		h = fnvByte(h, byte(vk))
		h = fnvString(h, v.str())
	case KindList:
		h = fnvByte(h, byte(vk))
		for _, e := range v.list() {
			h = e.hashFold(h)
		}
	default:
		k := byte(vk)
		n := v.n
		// Normalize numerics so Equal values hash equally.
		if vk == KindFloat {
			f := math.Float64frombits(n)
			if f == math.Trunc(f) && f >= 0 && f < 1e18 {
				n = uint64(f)
				k = byte(KindID)
			}
		} else if vk == KindInt && int64(n) >= 0 {
			k = byte(KindID)
		}
		h = fnvByte(h, k)
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(n>>(8*i)))
		}
	}
	return h
}

// String renders the value in OverLog literal syntax.
func (v Value) String() string {
	switch v.Kind() {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindID:
		// Hex literals parse back as ring IDs, so this round-trips.
		return "0x" + strconv.FormatUint(v.n, 16)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindStr:
		return strconv.Quote(v.str())
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindList:
		l := v.list()
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

// Add implements OverLog "+": numeric addition, string concatenation when
// either operand is a string (non-strings are stringified), and list
// concatenation when either operand is a list.
func Add(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak == KindList || bk == KindList:
		var out []Value
		if ak == KindList {
			out = append(out, a.list()...)
		} else {
			out = append(out, a)
		}
		if bk == KindList {
			out = append(out, b.list()...)
		} else {
			out = append(out, b)
		}
		return List(out...), nil
	case ak == KindStr || bk == KindStr:
		return Str(a.plain() + b.plain()), nil
	case ak == KindID || bk == KindID:
		return ID(a.asRing() + b.asRing()), nil
	case ak == KindFloat || bk == KindFloat:
		return Float(a.toFloat() + b.toFloat()), nil
	case ak == KindInt && bk == KindInt:
		return Int(int64(a.n) + int64(b.n)), nil
	}
	return Nil, fmt.Errorf("cannot add %s and %s", ak, bk)
}

// plain renders the value without quoting, for string concatenation.
func (v Value) plain() string {
	if v.Kind() == KindStr {
		return v.str()
	}
	return v.String()
}

// asRing converts a numeric value to ring (uint64, wrapping) arithmetic.
func (v Value) asRing() uint64 {
	switch v.Kind() {
	case KindID, KindInt:
		return v.n
	case KindFloat:
		return ringOfFloat(math.Float64frombits(v.n))
	}
	return 0
}

// AsRing returns v's position on the ring, the uint64 that ring
// arithmetic and InInterval read: an ID's or an int's bits, a float
// truncated toward zero (see ringOfFloat), and 0 for anything else.
func (v Value) AsRing() uint64 { return v.asRing() }

// ringOfFloat puts a float on the ring: one in (-2^63, 2^63) truncated
// toward zero as an int64's bits, one in [2^63, 2^64) truncated as
// itself, and anything else (NaN, ±Inf, beyond either end) at 2^63. Go's
// uint64(f) leaves every case but [0, 2^64) to the platform; these are
// the results amd64 gives, so a run is the same function of its seed on
// every platform.
func ringOfFloat(f float64) uint64 {
	switch {
	case f > -(1<<63) && f < 1<<63:
		return uint64(int64(f))
	case f >= 1<<63 && f < 1<<64:
		return uint64(f)
	}
	return 1 << 63
}

// Sub implements OverLog "-". On IDs it is modular ring subtraction, the
// operation Chord's distance computations (K - FID - 1) rely on.
func Sub(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak == KindID || bk == KindID:
		return ID(a.asRing() - b.asRing()), nil
	case ak == KindFloat || bk == KindFloat:
		if !numeric(ak) || !numeric(bk) {
			return Nil, fmt.Errorf("cannot subtract %s and %s", ak, bk)
		}
		return Float(a.toFloat() - b.toFloat()), nil
	case ak == KindInt && bk == KindInt:
		return Int(int64(a.n) - int64(b.n)), nil
	}
	return Nil, fmt.Errorf("cannot subtract %s and %s", ak, bk)
}

// Mul implements OverLog "*".
func Mul(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak == KindID || bk == KindID:
		return ID(a.asRing() * b.asRing()), nil
	case ak == KindFloat || bk == KindFloat:
		if !numeric(ak) || !numeric(bk) {
			return Nil, fmt.Errorf("cannot multiply %s and %s", ak, bk)
		}
		return Float(a.toFloat() * b.toFloat()), nil
	case ak == KindInt && bk == KindInt:
		return Int(int64(a.n) * int64(b.n)), nil
	}
	return Nil, fmt.Errorf("cannot multiply %s and %s", ak, bk)
}

// Div implements OverLog "/". Integer division on int/int; float otherwise.
func Div(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	if !numeric(ak) || !numeric(bk) {
		return Nil, fmt.Errorf("cannot divide %s and %s", ak, bk)
	}
	if ak == KindInt && bk == KindInt {
		if b.n == 0 {
			return Nil, fmt.Errorf("integer division by zero")
		}
		return Int(int64(a.n) / int64(b.n)), nil
	}
	if ak == KindID && (bk == KindID || bk == KindInt) {
		d := b.asRing()
		if d == 0 {
			return Nil, fmt.Errorf("id division by zero")
		}
		return ID(a.n / d), nil
	}
	d := b.toFloat()
	if d == 0 {
		return Nil, fmt.Errorf("division by zero")
	}
	return Float(a.toFloat() / d), nil
}

// Mod implements OverLog "%".
func Mod(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak == KindID || bk == KindID:
		d := b.asRing()
		if d == 0 {
			return Nil, fmt.Errorf("modulo by zero")
		}
		return ID(a.asRing() % d), nil
	case ak == KindInt && bk == KindInt:
		if b.n == 0 {
			return Nil, fmt.Errorf("modulo by zero")
		}
		return Int(int64(a.n) % int64(b.n)), nil
	}
	return Nil, fmt.Errorf("cannot take %s %% %s", ak, bk)
}

// Shl implements OverLog "<<" (used to compute finger targets 1 << I).
func Shl(a, b Value) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	if !numeric(ak) || !numeric(bk) {
		return Nil, fmt.Errorf("cannot shift %s by %s", ak, bk)
	}
	return ID(a.asRing() << (b.asRing() & 63)), nil
}

// InInterval reports whether k lies in the ring interval from lo to hi,
// traversed clockwise, with the given endpoint openness. Non-numeric
// values sit at 0. When lo == hi, Chord's convention applies: a
// half-open interval, (a, a] or [a, a), is the whole ring; [a, a] is a
// alone; and (a, a) is everything but a.
func InInterval(k, lo, hi Value, loOpen, hiOpen bool) bool {
	from, to, ok := RingArc(lo, hi, loOpen, hiOpen)
	return ok && k.asRing()-from <= to-from
}

// RingArc returns the ring positions InInterval(k, lo, hi, loOpen,
// hiOpen) accepts, as the clockwise arc from..to with both ends in; the
// arc wraps past 0 when from > to. ok is false when it accepts none,
// which only (a, a+1) does.
func RingArc(lo, hi Value, loOpen, hiOpen bool) (from, to uint64, ok bool) {
	a, b := lo.asRing(), hi.asRing()
	if a == b {
		switch {
		case !loOpen && !hiOpen:
			return a, a, true
		case loOpen && hiOpen:
			return a + 1, a - 1, true
		default:
			return a, a - 1, true // half-open degenerate interval = full ring
		}
	}
	from, to = a, b
	if loOpen {
		from++
	}
	if hiOpen {
		to--
	}
	// Distances clockwise from a: the arc is empty when it would end
	// before it starts.
	return from, to, from-a <= to-a
}

// Truth reports whether a value is "true" in a condition context.
func (v Value) Truth() bool {
	switch v.Kind() {
	case KindBool:
		return v.n != 0
	case KindNil:
		return false
	}
	return true
}

// SortValues sorts a slice of values in Compare order (used by aggregate
// and test code for deterministic output).
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}

// HashValues hashes a list of values (used for secondary-index keys).
func HashValues(vs []Value) uint64 {
	h := uint64(FnvOffset64)
	for _, v := range vs {
		h = v.hashFold(h)
	}
	return h
}

// HashFieldsAt hashes the fields at the given 0-based positions, a
// position past the end as Nil: HashValues of that projection without
// building it.
func HashFieldsAt(fields []Value, positions []int) uint64 {
	h := uint64(FnvOffset64)
	for _, p := range positions {
		if p < len(fields) {
			h = fields[p].hashFold(h)
		} else {
			h = Nil.hashFold(h)
		}
	}
	return h
}
