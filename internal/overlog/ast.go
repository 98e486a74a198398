package overlog

import (
	"fmt"
	"strings"

	"p2go/internal/tuple"
)

// Program is a parsed OverLog program: an ordered list of statements.
// Programs may be installed incrementally on a running node; statement
// order matters only in that tables must be materialized before rules
// referencing them are planned.
type Program struct {
	Statements []Stmt
	// Source is the original OverLog text the program was parsed from
	// (empty for programs assembled directly from AST nodes), so a
	// program can be shipped as text, as a higher-order installProgram
	// does, and parsed again.
	Source string
}

// Rules returns only the rule statements.
func (p *Program) Rules() []*Rule {
	var rs []*Rule
	for _, s := range p.Statements {
		if r, ok := s.(*Rule); ok {
			rs = append(rs, r)
		}
	}
	return rs
}

// Materializations returns only the materialize statements.
func (p *Program) Materializations() []*Materialize {
	var ms []*Materialize
	for _, s := range p.Statements {
		if m, ok := s.(*Materialize); ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// Stmt is a top-level OverLog statement.
type Stmt interface {
	stmt()
	String() string
}

// Materialize declares a soft-state table:
// materialize(name, lifetime, size, keys(1,2)).
type Materialize struct {
	Name     string
	Lifetime float64 // seconds; -1 = infinity
	MaxSize  int     // -1 = infinity
	Keys     []int   // 1-based field positions
}

func (*Materialize) stmt() {}

func (m *Materialize) String() string {
	life := "infinity"
	if m.Lifetime >= 0 {
		life = trimFloat(m.Lifetime)
	}
	size := "infinity"
	if m.MaxSize >= 0 {
		size = fmt.Sprintf("%d", m.MaxSize)
	}
	keys := make([]string, len(m.Keys))
	for i, k := range m.Keys {
		keys[i] = fmt.Sprintf("%d", k)
	}
	return fmt.Sprintf("materialize(%s, %s, %s, keys(%s)).",
		m.Name, life, size, strings.Join(keys, ","))
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Watch requests tracing of every tuple with the given name:
// watch(lookupResults).
type Watch struct {
	Name string
}

func (*Watch) stmt() {}

func (w *Watch) String() string { return fmt.Sprintf("watch(%s).", w.Name) }

// Rule is a deductive rule: [label] [delete] head :- body.
type Rule struct {
	// Label is the optional rule identifier (e.g. "rp1"); planner
	// generates one if empty. Labels appear in ruleExec trace tuples.
	Label string
	// Delete marks a delete-rule: matching head tuples are removed from
	// the head table instead of inserted.
	Delete bool
	// Head is the rule head.
	Head Functor
	// Body holds predicates, conditions and assignments in source order.
	Body []BodyTerm
}

func (*Rule) stmt() {}

func (r *Rule) String() string {
	var b strings.Builder
	if r.Label != "" {
		b.WriteString(r.Label)
		b.WriteByte(' ')
	}
	if r.Delete {
		b.WriteString("delete ")
	}
	b.WriteString(r.Head.String())
	b.WriteString(" :- ")
	for i, t := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Predicates returns the body predicates in source order.
func (r *Rule) Predicates() []*Functor {
	var fs []*Functor
	for _, t := range r.Body {
		if p, ok := t.(*Pred); ok {
			fs = append(fs, &p.Functor)
		}
	}
	return fs
}

// HasAggregate reports whether the head contains an aggregate argument.
func (r *Rule) HasAggregate() bool {
	for _, a := range r.Head.Args {
		if _, ok := a.(*Agg); ok {
			return true
		}
	}
	return false
}

// Functor is a predicate occurrence: name@Loc(args...). The location term
// is by convention the first tuple field; Args here EXCLUDES it, Loc holds
// it. Functors without an explicit @Loc use their first argument as the
// location (Loc == nil).
type Functor struct {
	Name string
	Loc  Expr   // nil when the first positional arg is the location
	Args []Expr // remaining arguments
}

// AllArgs returns the full argument list including the location term as
// field 0. When Loc is nil the args already start with the location.
func (f *Functor) AllArgs() []Expr {
	if f.Loc == nil {
		return f.Args
	}
	out := make([]Expr, 0, 1+len(f.Args))
	out = append(out, f.Loc)
	return append(out, f.Args...)
}

func (f *Functor) String() string {
	var b strings.Builder
	b.WriteString(f.Name)
	if f.Loc != nil {
		b.WriteByte('@')
		b.WriteString(f.Loc.String())
	}
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// BodyTerm is one element of a rule body.
type BodyTerm interface {
	bodyTerm()
	String() string
}

// Pred is a body predicate (an event or a table lookup).
type Pred struct{ Functor }

func (*Pred) bodyTerm() {}

// Cond is a boolean condition, e.g. PAddr != "-" or K in (NID, SID].
type Cond struct{ Expr Expr }

func (*Cond) bodyTerm() {}

func (c *Cond) String() string { return c.Expr.String() }

// Assign binds a fresh variable: T := f_now().
type Assign struct {
	Var  string
	Expr Expr
}

func (*Assign) bodyTerm() {}

func (a *Assign) String() string { return a.Var + " := " + a.Expr.String() }

// Expr is an OverLog expression node.
type Expr interface {
	expr()
	String() string
}

// Var references a variable (upper-case identifier).
type Var struct{ Name string }

func (*Var) expr() {}

func (v *Var) String() string { return v.Name }

// Wildcard is the don't-care pattern "_" in body predicate arguments.
type Wildcard struct{}

func (*Wildcard) expr() {}

func (*Wildcard) String() string { return "_" }

// Lit is a literal constant value.
type Lit struct{ Val tuple.Value }

func (*Lit) expr() {}

func (l *Lit) String() string { return l.Val.String() }

// Unary is a unary operation; Op is "-".
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) expr() {}

func (u *Unary) String() string { return u.Op + u.X.String() }

// Binary is a binary operation; Op is one of
// + - * / % << == != < <= > >= && ||.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr() {}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Call is a builtin function application, e.g. f_now().
type Call struct {
	Name string
	Args []Expr
}

func (*Call) expr() {}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ListExpr is a list constructor [A, B].
type ListExpr struct{ Elems []Expr }

func (*ListExpr) expr() {}

func (l *ListExpr) String() string {
	parts := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// RangeExpr is ring-interval membership: X in (Lo, Hi].
type RangeExpr struct {
	X, Lo, Hi      Expr
	LoOpen, HiOpen bool
}

func (*RangeExpr) expr() {}

func (r *RangeExpr) String() string {
	lo, hi := "[", "]"
	if r.LoOpen {
		lo = "("
	}
	if r.HiOpen {
		hi = ")"
	}
	return fmt.Sprintf("%s in %s%s, %s%s", r.X.String(), lo, r.Lo.String(), r.Hi.String(), hi)
}

// Agg is an aggregate head argument: count<*>, min<D>, max<Count>.
type Agg struct {
	Op  string // "count", "min", "max", "sum", "avg"
	Var string // aggregated variable; "" for count<*>
}

func (*Agg) expr() {}

func (a *Agg) String() string {
	v := a.Var
	if v == "" {
		v = "*"
	}
	return a.Op + "<" + v + ">"
}

// Vars returns the set of variable names appearing in an expression.
func Vars(e Expr) map[string]bool {
	out := map[string]bool{}
	collectVars(e, out)
	return out
}

func collectVars(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case *Var:
		out[x.Name] = true
	case *Unary:
		collectVars(x.X, out)
	case *Binary:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case *Call:
		for _, a := range x.Args {
			collectVars(a, out)
		}
	case *ListExpr:
		for _, el := range x.Elems {
			collectVars(el, out)
		}
	case *RangeExpr:
		collectVars(x.X, out)
		collectVars(x.Lo, out)
		collectVars(x.Hi, out)
	case *Agg:
		if x.Var != "" {
			out[x.Var] = true
		}
	}
}
