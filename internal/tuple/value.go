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
type Value struct {
	kind Kind
	num  uint64 // int64 bits, uint64 ID, float64 bits, or bool (0/1)
	str  string
	list []Value
}

// Nil is the nil value.
var Nil = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// ID returns a ring-identifier value.
func ID(v uint64) Value { return Value{kind: KindID, num: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindStr, str: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// List returns a list value holding the given elements. The slice is not
// copied; callers must not mutate it afterwards.
func List(elems ...Value) Value { return Value{kind: KindList, list: elems} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsInt returns the integer payload; valid only for KindInt.
func (v Value) AsInt() int64 { return int64(v.num) }

// AsID returns the identifier payload; valid only for KindID.
func (v Value) AsID() uint64 { return v.num }

// AsFloat returns the float payload; valid only for KindFloat.
func (v Value) AsFloat() float64 { return math.Float64frombits(v.num) }

// AsStr returns the string payload; valid only for KindStr.
func (v Value) AsStr() string { return v.str }

// AsBool returns the boolean payload; valid only for KindBool.
func (v Value) AsBool() bool { return v.num != 0 }

// AsList returns the list payload; valid only for KindList. Callers must
// not mutate the returned slice.
func (v Value) AsList() []Value { return v.list }

// Numeric reports whether v is int, ID, or float.
func (v Value) Numeric() bool {
	return v.kind == KindInt || v.kind == KindID || v.kind == KindFloat
}

// toFloat converts any numeric value to float64.
func (v Value) toFloat() float64 {
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

// Equal reports deep equality between two values. Numeric values of
// different kinds compare by numeric value (so Int(3) equals ID(3)), which
// matches OverLog's dynamically typed comparison semantics.
func (v Value) Equal(o Value) bool {
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

// Compare orders two values: negative if v < o, zero if equal, positive if
// v > o. Values of different kinds order by kind; numerics order by value.
func (v Value) Compare(o Value) int {
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

// String renders the value in OverLog literal syntax.
func (v Value) String() string {
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

// Add implements OverLog "+": numeric addition, string concatenation when
// either operand is a string (non-strings are stringified), and list
// concatenation when either operand is a list.
func Add(a, b Value) (Value, error) {
	switch {
	case a.kind == KindList || b.kind == KindList:
		var out []Value
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
		return List(out...), nil
	case a.kind == KindStr || b.kind == KindStr:
		return Str(a.plain() + b.plain()), nil
	case a.kind == KindID || b.kind == KindID:
		return ID(a.asRing() + b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		return Float(a.toFloat() + b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(int64(a.num) + int64(b.num)), nil
	}
	return Nil, fmt.Errorf("cannot add %s and %s", a.kind, b.kind)
}

// plain renders the value without quoting, for string concatenation.
func (v Value) plain() string {
	if v.kind == KindStr {
		return v.str
	}
	return v.String()
}

// asRing converts a numeric value to ring (uint64, wrapping) arithmetic.
func (v Value) asRing() uint64 {
	switch v.kind {
	case KindID:
		return v.num
	case KindInt:
		return uint64(int64(v.num))
	case KindFloat:
		return uint64(v.toFloat())
	}
	return 0
}

// Sub implements OverLog "-". On IDs it is modular ring subtraction, the
// operation Chord's distance computations (K - FID - 1) rely on.
func Sub(a, b Value) (Value, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		return ID(a.asRing() - b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		if !a.Numeric() || !b.Numeric() {
			return Nil, fmt.Errorf("cannot subtract %s and %s", a.kind, b.kind)
		}
		return Float(a.toFloat() - b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(int64(a.num) - int64(b.num)), nil
	}
	return Nil, fmt.Errorf("cannot subtract %s and %s", a.kind, b.kind)
}

// Mul implements OverLog "*".
func Mul(a, b Value) (Value, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		return ID(a.asRing() * b.asRing()), nil
	case a.kind == KindFloat || b.kind == KindFloat:
		if !a.Numeric() || !b.Numeric() {
			return Nil, fmt.Errorf("cannot multiply %s and %s", a.kind, b.kind)
		}
		return Float(a.toFloat() * b.toFloat()), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(int64(a.num) * int64(b.num)), nil
	}
	return Nil, fmt.Errorf("cannot multiply %s and %s", a.kind, b.kind)
}

// Div implements OverLog "/". Integer division on int/int; float otherwise.
func Div(a, b Value) (Value, error) {
	if !a.Numeric() || !b.Numeric() {
		return Nil, fmt.Errorf("cannot divide %s and %s", a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		if b.num == 0 {
			return Nil, fmt.Errorf("integer division by zero")
		}
		return Int(int64(a.num) / int64(b.num)), nil
	}
	if a.kind == KindID && (b.kind == KindID || b.kind == KindInt) {
		d := b.asRing()
		if d == 0 {
			return Nil, fmt.Errorf("id division by zero")
		}
		return ID(a.num / d), nil
	}
	d := b.toFloat()
	if d == 0 {
		return Nil, fmt.Errorf("division by zero")
	}
	return Float(a.toFloat() / d), nil
}

// Mod implements OverLog "%".
func Mod(a, b Value) (Value, error) {
	switch {
	case a.kind == KindID || b.kind == KindID:
		d := b.asRing()
		if d == 0 {
			return Nil, fmt.Errorf("modulo by zero")
		}
		return ID(a.asRing() % d), nil
	case a.kind == KindInt && b.kind == KindInt:
		if b.num == 0 {
			return Nil, fmt.Errorf("modulo by zero")
		}
		return Int(int64(a.num) % int64(b.num)), nil
	}
	return Nil, fmt.Errorf("cannot take %s %% %s", a.kind, b.kind)
}

// Shl implements OverLog "<<" (used to compute finger targets 1 << I).
func Shl(a, b Value) (Value, error) {
	if !a.Numeric() || !b.Numeric() {
		return Nil, fmt.Errorf("cannot shift %s by %s", a.kind, b.kind)
	}
	return ID(a.asRing() << (b.asRing() & 63)), nil
}

// InInterval reports whether k lies in the ring interval from lo to hi,
// traversed clockwise, with the given endpoint openness. The interval
// (a, a] covers the whole ring except... actually exactly: for lo == hi,
// an open-low interval covers the entire ring minus nothing: Chord
// defines (a, a] as the full ring (every key is "between" a and a going
// clockwise). A closed-low interval [a, a) likewise covers the full ring,
// and [a, a] covers only a itself while (a, a) covers everything but a.
func InInterval(k, lo, hi Value, loOpen, hiOpen bool) bool {
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

// Truth reports whether a value is "true" in a condition context.
func (v Value) Truth() bool {
	switch v.kind {
	case KindBool:
		return v.num != 0
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
