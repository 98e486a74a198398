package overlog

import (
	"fmt"

	"p2go/internal/tuple"
)

// Context supplies the environment builtin functions read: the node's
// clock, random source, and identity. The engine's node implements it.
type Context interface {
	// Now returns the node-local virtual time in seconds (f_now).
	Now() float64
	// Rand64 returns a uniformly random uint64 (f_rand, f_randID).
	Rand64() uint64
	// LocalAddr returns this node's address string (f_localAddr).
	LocalAddr() string
}

// Compiled is an expression resolved against a slot layout. env holds
// each variable's value at its slot, tuple.Nil while it is unbound.
// Unbound variables and type mismatches are errors; the planner places
// rule expressions where their variables are bound. A Compiled keeps no
// state, so one serves every node running the rule, concurrently too.
type Compiled func(env []tuple.Value, ctx Context) (tuple.Value, error)

// Compile resolves e once: slotOf gives a variable's slot, or -1 for a
// variable the layout does not have, which is unbound whenever evaluated.
// Operators and builtins are chosen here, not per evaluation. Evaluation
// order and error text are the tree walk's: operands left to right, &&
// and || short-circuit, and a builtin's arguments are all evaluated
// before its name and arity are checked.
func Compile(e Expr, slotOf func(name string) int) Compiled {
	switch x := e.(type) {
	case *Lit, *Var:
		o := compileOperand(e, slotOf)
		return o.value
	case *Wildcard:
		return fails(fmt.Errorf("wildcard in expression context"))
	case *Unary:
		o := compileOperand(x.X, slotOf)
		return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
			v, err := o.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.Sub(tuple.Int(0), v)
		}
	case *Binary:
		return compileBinary(x, slotOf)
	case *Call:
		return compileCall(x, slotOf)
	case *ListExpr:
		elems := compileOperands(x.Elems, slotOf)
		return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
			vals, err := evalAll(elems, env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.List(vals...), nil
		}
	case *RangeExpr:
		k, lo, hi := compileOperand(x.X, slotOf), compileOperand(x.Lo, slotOf), compileOperand(x.Hi, slotOf)
		loOpen, hiOpen := x.LoOpen, x.HiOpen
		return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
			kv, err := k.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			lv, err := lo.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			hv, err := hi.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.Bool(tuple.InInterval(kv, lv, hv, loOpen, hiOpen)), nil
		}
	case *Agg:
		return fails(fmt.Errorf("aggregate %s evaluated outside head", x.String()))
	}
	return fails(fmt.Errorf("unknown expression %T", e))
}

// fails compiles an expression that can only report err.
func fails(err error) Compiled {
	return func([]tuple.Value, Context) (tuple.Value, error) { return tuple.Nil, err }
}

// operand is one input of an operator: a variable or a literal is read in
// place, anything else is a nested compiled call.
type operand struct {
	slot int         // the variable's slot, or -1
	name string      // the variable's name, for its unbound error
	lit  tuple.Value // the literal, when slot and fn are unset
	fn   Compiled    // a nested expression
}

func compileOperand(e Expr, slotOf func(string) int) operand {
	switch x := e.(type) {
	case *Lit:
		return operand{slot: -1, lit: x.Val}
	case *Var:
		if slot := slotOf(x.Name); slot >= 0 {
			return operand{slot: slot, name: x.Name}
		}
		return operand{slot: -1, fn: fails(unbound(x.Name))}
	}
	return operand{slot: -1, fn: Compile(e, slotOf)}
}

func compileOperands(es []Expr, slotOf func(string) int) []operand {
	ops := make([]operand, len(es))
	for i, e := range es {
		ops[i] = compileOperand(e, slotOf)
	}
	return ops
}

// value evaluates the operand: a variable's slot, the literal, or the
// nested expression's result.
func (o *operand) value(env []tuple.Value, ctx Context) (tuple.Value, error) {
	switch {
	case o.fn != nil:
		return o.fn(env, ctx)
	case o.slot < 0:
		return o.lit, nil
	case env[o.slot].IsNil():
		return tuple.Nil, unbound(o.name)
	}
	return env[o.slot], nil
}

func unbound(name string) error { return fmt.Errorf("unbound variable %s", name) }

// evalAll evaluates ops in order into a fresh slice.
func evalAll(ops []operand, env []tuple.Value, ctx Context) ([]tuple.Value, error) {
	vals := make([]tuple.Value, len(ops))
	for i := range ops {
		v, err := ops[i].value(env, ctx)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// binaryOps are the strict binary operators; && and || short-circuit and
// are compiled apart.
var binaryOps = map[string]func(l, r tuple.Value) (tuple.Value, error){
	"+":  tuple.Add,
	"-":  tuple.Sub,
	"*":  tuple.Mul,
	"/":  tuple.Div,
	"%":  tuple.Mod,
	"<<": tuple.Shl,
	"==": func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Equal(r)), nil },
	"!=": func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(!l.Equal(r)), nil },
	"<":  func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) < 0), nil },
	"<=": func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) <= 0), nil },
	">":  func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) > 0), nil },
	">=": func(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) >= 0), nil },
}

func compileBinary(x *Binary, slotOf func(string) int) Compiled {
	l, r := compileOperand(x.L, slotOf), compileOperand(x.R, slotOf)
	if x.Op == "&&" || x.Op == "||" {
		// The left operand's truth decides && when false, || when true.
		decides := x.Op == "||"
		return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
			lv, err := l.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			if lv.Truth() == decides {
				return tuple.Bool(decides), nil
			}
			rv, err := r.value(env, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.Bool(rv.Truth()), nil
		}
	}
	op := binaryOps[x.Op]
	if op == nil {
		err := fmt.Errorf("unknown operator %q", x.Op)
		op = func(tuple.Value, tuple.Value) (tuple.Value, error) { return tuple.Nil, err }
	}
	return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
		lv, err := l.value(env, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		rv, err := r.value(env, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return op(lv, rv)
	}
}

// builtin is one entry of the builtin function table. All builtins are
// pure given the Context.
type builtin struct {
	arity int
	fn    func(args []tuple.Value, ctx Context) (tuple.Value, error)
}

var builtins = map[string]builtin{
	"f_now":       {0, func(_ []tuple.Value, ctx Context) (tuple.Value, error) { return tuple.Float(ctx.Now()), nil }},
	"f_rand":      {0, randID},
	"f_randID":    {0, randID},
	"f_localAddr": {0, func(_ []tuple.Value, ctx Context) (tuple.Value, error) { return tuple.Str(ctx.LocalAddr()), nil }},
	"f_hash":      {1, func(args []tuple.Value, _ Context) (tuple.Value, error) { return tuple.ID(args[0].Hash()), nil }},
	"f_size": {1, func(args []tuple.Value, _ Context) (tuple.Value, error) {
		if args[0].Kind() == tuple.KindList {
			return tuple.Int(int64(len(args[0].AsList()))), nil
		}
		if args[0].Kind() == tuple.KindStr {
			return tuple.Int(int64(len(args[0].AsStr()))), nil
		}
		return tuple.Nil, fmt.Errorf("f_size wants a list or string, got %s", args[0].Kind())
	}},
	"f_first": {1, func(args []tuple.Value, _ Context) (tuple.Value, error) {
		l := args[0].AsList()
		if args[0].Kind() != tuple.KindList || len(l) == 0 {
			return tuple.Nil, fmt.Errorf("f_first of empty or non-list")
		}
		return l[0], nil
	}},
	"f_last": {1, func(args []tuple.Value, _ Context) (tuple.Value, error) {
		l := args[0].AsList()
		if args[0].Kind() != tuple.KindList || len(l) == 0 {
			return tuple.Nil, fmt.Errorf("f_last of empty or non-list")
		}
		return l[len(l)-1], nil
	}},
	"f_member": {2, func(args []tuple.Value, _ Context) (tuple.Value, error) {
		if args[0].Kind() != tuple.KindList {
			return tuple.Nil, fmt.Errorf("f_member wants a list")
		}
		for _, e := range args[0].AsList() {
			if e.Equal(args[1]) {
				return tuple.Bool(true), nil
			}
		}
		return tuple.Bool(false), nil
	}},
	"f_tostr": {1, func(args []tuple.Value, _ Context) (tuple.Value, error) { return tuple.Str(args[0].String()), nil }},
}

func randID(_ []tuple.Value, ctx Context) (tuple.Value, error) { return tuple.ID(ctx.Rand64()), nil }

func compileCall(c *Call, slotOf func(string) int) Compiled {
	args := compileOperands(c.Args, slotOf)
	b, known := builtins[c.Name]
	var err error
	switch {
	case !known:
		err = fmt.Errorf("unknown builtin %s", c.Name)
	case len(args) != b.arity:
		err = fmt.Errorf("%s expects %d argument(s), got %d", c.Name, b.arity, len(args))
	}
	if err != nil {
		// Still evaluated first: an argument's own error wins.
		return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
			if _, aerr := evalAll(args, env, ctx); aerr != nil {
				return tuple.Nil, aerr
			}
			return tuple.Nil, err
		}
	}
	fn := b.fn
	return func(env []tuple.Value, ctx Context) (tuple.Value, error) {
		vals, err := evalAll(args, env, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return fn(vals, ctx)
	}
}
