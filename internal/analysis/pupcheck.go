package analysis

import (
	"go/ast"
	"go/types"
)

// PupCheck verifies PUP completeness: for every type with a
// `Pup(*pup.Pup)` method, each field of the receiver's struct must be
// referenced somewhere in the method body (directly or through a helper in
// the same body) or carry a //pup:skip waiver on its declaration. A field
// missing from Pup is silently zeroed on migration or checkpoint restore —
// the classic silent-state-loss bug of migratable objects, invisible until
// a load balancer happens to move the chare.
//
// For fields that are themselves structs declared in the same package —
// embedded state structs and named sub-state fields — the check descends
// one level: a *terminal* use of the field (`c.Sub.Pup(p)`, or `&c.Sub`
// handed to a helper) delegates coverage wholesale, but a field that is
// only pup'd field-by-field (`p.Int(&c.Sub.N)`, or promoted `p.Int(&c.N)`
// through an embedding) must cover every sub-field. Before this descent, a
// chare embedding its state struct got no field coverage at all: one
// promoted reference marked the leaf covered and the embedding was never
// expanded, so a forgotten sibling sub-field was invisible.
var PupCheck = &Analyzer{
	Name: "pupcheck",
	Doc:  "flags struct fields not covered by the type's Pup method",
	Run:  runPupCheck,
}

func runPupCheck(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pass.checkPupMethod(fn)
		}
	}
}

func (p *Pass) checkPupMethod(fn *ast.FuncDecl) {
	if fn.Name.Name != "Pup" || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return
	}
	if fn.Type.Params == nil || len(fn.Type.Params.List) != 1 || !isPtrToNamed(p.Info.TypeOf(fn.Type.Params.List[0].Type), "pup", "Pup") {
		return
	}
	st := recvStructOf(p.Info.TypeOf(fn.Recv.List[0].Type))
	if st == nil {
		return
	}

	// Parent links, for classifying how a field selection is used.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	// Mark every field the body selects, whatever the base expression: the
	// common `c.Field`, pointer forms, and selections made on a local alias
	// all resolve to the same field object through the type checker.
	// covered holds leaf field objects; topCovered attributes promoted and
	// chained selections back to the receiver's own field; delegated marks
	// receiver fields used terminally (whole-value or method call), whose
	// coverage is someone else's responsibility.
	covered := map[*types.Var]bool{}
	topCovered := map[*types.Var]bool{}
	delegated := map[*types.Var]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		f, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		covered[f] = true
		if recvStructOf(s.Recv()) == st && len(s.Index()) >= 1 {
			top := st.Field(s.Index()[0])
			topCovered[top] = true
			if len(s.Index()) == 1 && f == top && terminalUse(p, parents, sel) {
				delegated[top] = true
			}
		}
		return true
	})

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" {
			continue
		}
		sub := localSubStruct(p, f)
		referenced := covered[f] || topCovered[f]
		if sub == nil || delegated[f] {
			if referenced || p.Waived(WaiverPupSkip, f.Pos()) {
				continue
			}
			p.Reportf(fn.Name.Pos(), "field %s is not referenced in Pup; migration would silently drop it — pup it or annotate //pup:skip on the field",
				f.Name())
			continue
		}
		if !referenced {
			if !p.Waived(WaiverPupSkip, f.Pos()) {
				p.Reportf(fn.Name.Pos(), "field %s is not referenced in Pup; migration would silently drop it — pup it or annotate //pup:skip on the field",
					f.Name())
			}
			continue
		}
		// The struct-typed field is pup'd field-by-field rather than
		// delegated: every one of its fields must be covered too.
		for j := 0; j < sub.NumFields(); j++ {
			sf := sub.Field(j)
			if sf.Name() == "_" || covered[sf] {
				continue
			}
			if p.Waived(WaiverPupSkip, sf.Pos()) {
				continue
			}
			p.Reportf(fn.Name.Pos(), "field %s.%s is not referenced in Pup; migration would silently drop it — pup it, delegate %s wholesale, or annotate //pup:skip on the field",
				f.Name(), sf.Name(), f.Name())
		}
	}
}

// terminalUse reports whether sel (a direct receiver-field selection like
// c.Sub) is used as a whole value: taken by address, assigned, passed to a
// call, or the receiver of a method call (`c.Sub.Pup(p)`). A further field
// selection on it (`c.Sub.N`) is the one non-terminal shape — that is
// field-by-field pupping, which the caller checks for completeness.
func terminalUse(p *Pass, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	parent := parents[sel]
	if outer, ok := parent.(*ast.SelectorExpr); ok && outer.X == sel {
		if s := p.Info.Selections[outer]; s != nil && s.Kind() == types.FieldVal {
			return false
		}
		return true // method call or expansion the checker cannot follow
	}
	return true
}

// localSubStruct returns the struct definition of f's (possibly pointer)
// named struct type when that type is declared in the package under
// analysis, or nil. The one-level descent stops at package boundaries:
// a field of an imported type is the importer's opaque value.
func localSubStruct(p *Pass, f *types.Var) *types.Struct {
	t := f.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != p.Pkg {
		return nil
	}
	st, _ := named.Underlying().(*types.Struct)
	return st
}

// recvStructOf resolves a selection's receiver type to its struct
// definition (through a pointer when present).
func recvStructOf(t types.Type) *types.Struct {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if t == nil {
		return nil
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
