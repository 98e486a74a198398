// The tree-walking interpreter Compile replaced, copied verbatim from
// 58dbd4a's internal/overlog/eval.go as the oracle FuzzCompile holds the
// compiled evaluator to (the way PR 17 kept eagerTracer). It is test
// code: no second evaluator ships.

package overlog

import (
	"fmt"

	"p2go/internal/tuple"
)

// Lookup resolves a variable name to its bound value; the second result
// is false for unbound variables.
type Lookup func(name string) (tuple.Value, bool)

// Eval evaluates an expression under the given variable bindings and
// builtin context. Unbound variables and type mismatches are errors; the
// planner guarantees rule expressions are evaluated only once their
// variables are bound.
func Eval(e Expr, lookup Lookup, ctx Context) (tuple.Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *Var:
		v, ok := lookup(x.Name)
		if !ok {
			return tuple.Nil, fmt.Errorf("unbound variable %s", x.Name)
		}
		return v, nil
	case *Wildcard:
		return tuple.Nil, fmt.Errorf("wildcard in expression context")
	case *Unary:
		v, err := Eval(x.X, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return tuple.Sub(tuple.Int(0), v)
	case *Binary:
		return evalBinary(x, lookup, ctx)
	case *Call:
		return evalCall(x, lookup, ctx)
	case *ListExpr:
		elems := make([]tuple.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := Eval(el, lookup, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			elems[i] = v
		}
		return tuple.List(elems...), nil
	case *RangeExpr:
		k, err := Eval(x.X, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		lo, err := Eval(x.Lo, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		hi, err := Eval(x.Hi, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return tuple.Bool(tuple.InInterval(k, lo, hi, x.LoOpen, x.HiOpen)), nil
	case *Agg:
		return tuple.Nil, fmt.Errorf("aggregate %s evaluated outside head", x.String())
	}
	return tuple.Nil, fmt.Errorf("unknown expression %T", e)
}

func evalBinary(x *Binary, lookup Lookup, ctx Context) (tuple.Value, error) {
	// Short-circuit boolean operators.
	if x.Op == "&&" || x.Op == "||" {
		l, err := Eval(x.L, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		if x.Op == "&&" && !l.Truth() {
			return tuple.Bool(false), nil
		}
		if x.Op == "||" && l.Truth() {
			return tuple.Bool(true), nil
		}
		r, err := Eval(x.R, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return tuple.Bool(r.Truth()), nil
	}
	l, err := Eval(x.L, lookup, ctx)
	if err != nil {
		return tuple.Nil, err
	}
	r, err := Eval(x.R, lookup, ctx)
	if err != nil {
		return tuple.Nil, err
	}
	switch x.Op {
	case "+":
		return tuple.Add(l, r)
	case "-":
		return tuple.Sub(l, r)
	case "*":
		return tuple.Mul(l, r)
	case "/":
		return tuple.Div(l, r)
	case "%":
		return tuple.Mod(l, r)
	case "<<":
		return tuple.Shl(l, r)
	case "==":
		return tuple.Bool(l.Equal(r)), nil
	case "!=":
		return tuple.Bool(!l.Equal(r)), nil
	case "<":
		return tuple.Bool(l.Compare(r) < 0), nil
	case "<=":
		return tuple.Bool(l.Compare(r) <= 0), nil
	case ">":
		return tuple.Bool(l.Compare(r) > 0), nil
	case ">=":
		return tuple.Bool(l.Compare(r) >= 0), nil
	}
	return tuple.Nil, fmt.Errorf("unknown operator %q", x.Op)
}

// Builtin function table. All builtins are pure given the Context.
func evalCall(c *Call, lookup Lookup, ctx Context) (tuple.Value, error) {
	args := make([]tuple.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		args[i] = v
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", c.Name, n, len(args))
		}
		return nil
	}
	switch c.Name {
	case "f_now":
		if err := arity(0); err != nil {
			return tuple.Nil, err
		}
		return tuple.Float(ctx.Now()), nil
	case "f_rand", "f_randID":
		if err := arity(0); err != nil {
			return tuple.Nil, err
		}
		return tuple.ID(ctx.Rand64()), nil
	case "f_localAddr":
		if err := arity(0); err != nil {
			return tuple.Nil, err
		}
		return tuple.Str(ctx.LocalAddr()), nil
	case "f_hash":
		if err := arity(1); err != nil {
			return tuple.Nil, err
		}
		return tuple.ID(args[0].Hash()), nil
	case "f_size":
		if err := arity(1); err != nil {
			return tuple.Nil, err
		}
		if args[0].Kind() == tuple.KindList {
			return tuple.Int(int64(len(args[0].AsList()))), nil
		}
		if args[0].Kind() == tuple.KindStr {
			return tuple.Int(int64(len(args[0].AsStr()))), nil
		}
		return tuple.Nil, fmt.Errorf("f_size wants a list or string, got %s", args[0].Kind())
	case "f_first":
		if err := arity(1); err != nil {
			return tuple.Nil, err
		}
		l := args[0].AsList()
		if args[0].Kind() != tuple.KindList || len(l) == 0 {
			return tuple.Nil, fmt.Errorf("f_first of empty or non-list")
		}
		return l[0], nil
	case "f_last":
		if err := arity(1); err != nil {
			return tuple.Nil, err
		}
		l := args[0].AsList()
		if args[0].Kind() != tuple.KindList || len(l) == 0 {
			return tuple.Nil, fmt.Errorf("f_last of empty or non-list")
		}
		return l[len(l)-1], nil
	case "f_member":
		if err := arity(2); err != nil {
			return tuple.Nil, err
		}
		if args[0].Kind() != tuple.KindList {
			return tuple.Nil, fmt.Errorf("f_member wants a list")
		}
		for _, e := range args[0].AsList() {
			if e.Equal(args[1]) {
				return tuple.Bool(true), nil
			}
		}
		return tuple.Bool(false), nil
	case "f_tostr":
		if err := arity(1); err != nil {
			return tuple.Nil, err
		}
		return tuple.Str(args[0].String()), nil
	}
	return tuple.Nil, fmt.Errorf("unknown builtin %s", c.Name)
}
