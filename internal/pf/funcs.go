package pf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"identxx/internal/sig"
)

// Func is a boolean predicate callable from a `with` clause. Returning an
// error marks the rule as non-matching and records a diagnostic; returning
// (false, nil) is an ordinary predicate failure.
//
// args is borrowed scratch owned by the evaluator: it is valid only until
// the function returns and is overwritten by the next predicate call. A
// function that needs an argument past its own return must copy it.
type Func func(ctx *Ctx, args []Value) (bool, error)

// FuncRegistry maps function names to implementations. It is safe for
// concurrent use so operators can register functions while the controller
// is evaluating flows. The live map sits behind an atomic pointer and
// Register copies-on-write, so the per-predicate Lookup on the decision
// fast path is one atomic load plus a map read, no lock.
type FuncRegistry struct {
	mu    sync.Mutex // serializes writers only
	funcs atomic.Pointer[map[string]Func]
	// overridden records built-in names the operator has replaced. The
	// compiler's static key analysis assumes the built-ins' read
	// behavior (they inspect only their resolved arguments); a
	// replacement may do anything — EvalEmbedded included — so analysis
	// of an overridden name must fall back to the conservative bound.
	overridden atomic.Pointer[map[string]bool]
}

// Register installs or replaces a function.
func (r *FuncRegistry) Register(name string, fn Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.funcs.Load()
	next := make(map[string]Func, len(*old)+1)
	for k, v := range *old {
		next[k] = v
	}
	next[name] = fn
	r.funcs.Store(&next)
	if staticFuncs[name] || name == "allowed" {
		oldOv := r.overridden.Load()
		nextOv := make(map[string]bool, len(*oldOv)+1)
		for k := range *oldOv {
			nextOv[k] = true
		}
		nextOv[name] = true
		r.overridden.Store(&nextOv)
	}
}

// Lookup returns a function by name.
func (r *FuncRegistry) Lookup(name string) (Func, bool) {
	fn, ok := (*r.funcs.Load())[name]
	return fn, ok
}

// Overridden reports whether a built-in name has been replaced since the
// registry was built; the key analysis (compile.go) consults it.
func (r *FuncRegistry) Overridden(name string) bool {
	return (*r.overridden.Load())[name]
}

// DefaultFuncs returns a registry with the paper's predefined functions
// (§3.3: eq, gt, lt, gte, lte, member, allowed, verify) plus `includes`,
// which Figure 8 uses for patch-level checks.
func DefaultFuncs() *FuncRegistry {
	m := map[string]Func{
		"eq":       fnEq,
		"gt":       fnCompare(func(c int) bool { return c > 0 }),
		"lt":       fnCompare(func(c int) bool { return c < 0 }),
		"gte":      fnCompare(func(c int) bool { return c >= 0 }),
		"lte":      fnCompare(func(c int) bool { return c <= 0 }),
		"member":   fnMember,
		"allowed":  fnAllowed,
		"verify":   fnVerify,
		"includes": fnIncludes,
	}
	r := &FuncRegistry{}
	r.funcs.Store(&m)
	ov := make(map[string]bool)
	r.overridden.Store(&ov)
	return r
}

func need(args []Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func allPresent(args []Value) bool {
	for _, a := range args {
		if !a.Present {
			return false
		}
	}
	return true
}

// fnEq returns true when both arguments are present and equal. Values that
// both parse as numbers compare numerically, so eq(@src[version], 210)
// holds whether the daemon sent "210" or "210.0".
func fnEq(_ *Ctx, args []Value) (bool, error) {
	if err := need(args, 2, "eq"); err != nil {
		return false, err
	}
	if !allPresent(args) {
		return false, nil
	}
	if an, aok := parseNum(args[0].S); aok {
		if bn, bok := parseNum(args[1].S); bok {
			return an == bn, nil
		}
	}
	return args[0].S == args[1].S, nil
}

// fnCompare builds gt/lt/gte/lte. Numeric when both sides are numeric,
// lexicographic otherwise (so version strings like "2.1.9" still order
// sensibly enough for threshold rules; exact semantics documented).
func fnCompare(accept func(cmp int) bool) Func {
	return func(_ *Ctx, args []Value) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("comparison expects 2 arguments, got %d", len(args))
		}
		if !allPresent(args) {
			return false, nil
		}
		if an, aok := parseNum(args[0].S); aok {
			if bn, bok := parseNum(args[1].S); bok {
				switch {
				case an < bn:
					return accept(-1), nil
				case an > bn:
					return accept(1), nil
				default:
					return accept(0), nil
				}
			}
		}
		return accept(strings.Compare(args[0].S, args[1].S)), nil
	}
}

func parseNum(s string) (float64, bool) {
	// Cheap reject before ParseFloat: most policy operands are words like
	// "skype", and ParseFloat allocates an error for every non-numeric
	// input — pure garbage on the per-decision fast path. Anything numeric
	// starts with a digit, sign, or point; everything else (including
	// exotic spellings like "inf", which no daemon emits as a number)
	// compares as a string.
	if s == "" {
		return 0, false
	}
	if c := s[0]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// setBody strips the optional brace wrapper of a set-valued string ("{ http
// ssh }", "users,staff", "research"); nextElem then walks its whitespace- or
// comma-separated elements in place: the first one ("" when none is left) and
// what follows it.
func setBody(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "{")
	return strings.TrimSuffix(s, "}")
}

func nextElem(s string) (elem, rest string) {
	s = strings.TrimLeft(s, " \t,\n")
	i := strings.IndexAny(s, " \t,\n")
	if i < 0 {
		i = len(s)
	}
	return s[:i], s[i:]
}

// fnMember tests whether any value of the first argument is in the set
// named by the second (§3.3: "member tests if first argument is in list
// named by second argument"). The first argument may itself be multi-valued
// (a user in several groups). The second argument names a set: a macro
// (member(@src[name], $allowed)), a braces list, a bare name that resolves
// to a macro, or a literal singleton (member(@src[groupID], users)).
func fnMember(ctx *Ctx, args []Value) (bool, error) {
	if err := need(args, 2, "member"); err != nil {
		return false, err
	}
	if !allPresent(args) {
		return false, nil
	}
	setText := args[1].S
	if args[1].Arg.Kind == ArgLiteral {
		if body, ok := ctx.LookupMacro(setText); ok {
			setText = body
		}
	}
	set := setBody(setText)
	for v, vs := nextElem(setBody(args[0].S)); v != ""; v, vs = nextElem(vs) {
		for m, ms := nextElem(set); m != ""; m, ms = nextElem(ms) {
			if v == m {
				return true, nil
			}
		}
	}
	return false, nil
}

// fnIncludes tests whether the first argument, viewed as a token list,
// contains the second — Figure 8's includes(@dst[os-patch], MS08-067)
// where os-patch carries every installed patch id.
func fnIncludes(_ *Ctx, args []Value) (bool, error) {
	if err := need(args, 2, "includes"); err != nil {
		return false, err
	}
	if !allPresent(args) {
		return false, nil
	}
	needle := strings.TrimSpace(args[1].S)
	for tok, rest := nextElem(setBody(args[0].S)); tok != ""; tok, rest = nextElem(rest) {
		if tok == needle {
			return true, nil
		}
	}
	return false, nil
}

// fnAllowed evaluates the rules supplied in its argument against the
// current flow and returns whether they pass it (§3.3: "allowed tests if
// flow is allowed by rule specified in argument"). This is the hook that
// lets an administrator's rule defer to user- or third-party-provided
// rules; combined with verify it gives authenticated delegation.
func fnAllowed(ctx *Ctx, args []Value) (bool, error) {
	if err := need(args, 1, "allowed"); err != nil {
		return false, err
	}
	if !args[0].Present {
		return false, nil
	}
	src := strings.TrimSpace(args[0].S)
	if src == "" {
		return false, nil
	}
	d, err := ctx.EvalEmbedded("allowed("+args[0].Arg.String()+")", src)
	if err != nil {
		return false, err
	}
	return d.Action == Pass, nil
}

// fnVerify checks that the first argument is a correct signature, under the
// public key in the second argument, over the remaining arguments (§3.3).
// Any missing argument fails closed.
func fnVerify(_ *Ctx, args []Value) (bool, error) {
	if len(args) < 3 {
		return false, fmt.Errorf("verify expects at least 3 arguments, got %d", len(args))
	}
	if !allPresent(args) {
		return false, nil
	}
	pub, err := sig.ParsePublicKey(args[1].S)
	if err != nil {
		return false, err
	}
	data := make([]string, 0, len(args)-2)
	for _, a := range args[2:] {
		data = append(data, a.S)
	}
	if err := sig.Verify(pub, args[0].S, data...); err != nil {
		return false, nil // a bad signature is a predicate failure, not a rule error
	}
	return true, nil
}
