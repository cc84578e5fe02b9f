package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DTT004 — snapshot state must actually round-trip through gob.
//
// core.Snapshotter is the recovery contract: at a marker cut the
// runtime has an instance append its state to a buffer and restores it
// after a crash. The built-in templates write columns of a wire layout
// and fall back to gob for the rest; a hand-written AppendSnapshot
// that gob-encodes its state meets gob's limits head on. gob cannot
// encode functions or channels, and a struct none of whose fields are
// exported encodes to nothing — all three fail at Encode/Decode time,
// i.e. mid-recovery, long after the topology passed every static and
// DAG-level check. This rule walks every (*gob.Encoder).Encode argument
// inside AppendSnapshot methods of Snapshotter implementations and
// rejects value shapes gob is known to choke on. Types implementing
// gob.GobEncoder are trusted to handle themselves.
func (a *analyzer) rule004(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "AppendSnapshot" || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !typeImplements(recv.Type(), a.hooks.coreSnapshotter) {
				continue
			}
			a.checkSnapshotBody(p, fd)
		}
	}
}

// checkSnapshotBody inspects every gob Encode call in one
// AppendSnapshot method.
func (a *analyzer) checkSnapshotBody(p *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Encode" {
			return true
		}
		rt := p.Info.TypeOf(sel.X)
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if rt == nil || !types.Identical(rt, a.hooks.gobEncoder) {
			return true
		}
		for _, arg := range call.Args {
			t := p.Info.TypeOf(arg)
			if t == nil {
				continue
			}
			root := types.TypeString(t, types.RelativeTo(p.Types))
			var issues []gobIssue
			a.gobIssues(t, root, map[types.Type]bool{}, &issues)
			for _, iss := range issues {
				a.reportf(arg.Pos(), CodeSnapshot,
					"snapshot state %s is not gob-encodable: %s — gob.Encode will fail at the marker cut and Restore will panic mid-recovery; exclude the field or give the type a GobEncoder",
					iss.path, iss.why)
			}
		}
		return true
	})
}

// gobIssue is one non-encodable leaf found inside a snapshot value.
type gobIssue struct {
	path string // field path from the encoded root, e.g. snap.Callbacks
	why  string
}

// gobIssues walks a type the way gob's encoder would and records
// every shape gob rejects: funcs, channels, unsafe pointers, and
// structs with fields but none exported. Exported fields only —
// unexported fields are skipped by gob, so they are harmless.
// Interfaces and type parameters are skipped: their concrete types
// are unknown statically. A cycle guard keeps recursive types
// (trees, linked lists) terminating.
func (a *analyzer) gobIssues(t types.Type, path string, seen map[types.Type]bool, out *[]gobIssue) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if a.hooks.gobEncoderIface != nil && typeImplements(t, a.hooks.gobEncoderIface) {
		return // self-encoding type (time.Time and friends)
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		*out = append(*out, gobIssue{path, fmt.Sprintf("%s is a func type (gob cannot encode functions)", t)})
	case *types.Chan:
		*out = append(*out, gobIssue{path, fmt.Sprintf("%s is a channel type (gob cannot encode channels)", t)})
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			*out = append(*out, gobIssue{path, "unsafe.Pointer is not encodable"})
		}
	case *types.Pointer:
		a.gobIssues(u.Elem(), path, seen, out)
	case *types.Slice:
		a.gobIssues(u.Elem(), path+"[]", seen, out)
	case *types.Array:
		a.gobIssues(u.Elem(), path+"[]", seen, out)
	case *types.Map:
		a.gobIssues(u.Key(), path+" key", seen, out)
		a.gobIssues(u.Elem(), path+" value", seen, out)
	case *types.Struct:
		exported := 0
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			exported++
			a.gobIssues(f.Type(), path+"."+f.Name(), seen, out)
		}
		if u.NumFields() > 0 && exported == 0 {
			*out = append(*out, gobIssue{path,
				"struct has fields but none exported, so gob encodes nothing and Decode restores zero state"})
		}
	}
}
