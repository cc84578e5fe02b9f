package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// hooks are the framework objects the rules anchor on, resolved once
// per run from the module's own core/storm/stream packages. Working
// from real go/types objects (not names) keeps the rules precise:
// a user type called Bolt in an unrelated package is not a bolt.
type hooks struct {
	coreInstance    *types.Interface // core.Instance
	coreOperator    *types.Interface // core.Operator
	coreSnapshotter *types.Interface // core.Snapshotter
	stormBolt       *types.Interface // storm.Bolt
	stormChanBolt   *types.Interface // storm.ChannelBolt
	stormFlusher    *types.Interface // storm.Flusher
	parAny          types.Object     // core.ParAny
	gobEncoder      types.Type       // encoding/gob.Encoder (named)
	gobEncoderIface *types.Interface // encoding/gob.GobEncoder
	streamEvent     types.Type       // stream.Event (named)
	streamColumns   types.Type       // stream.Columns (named)
	corePkg         string           // import path of internal/core
	stormPkg        string           // import path of internal/storm
}

// resolveHooks loads the framework packages and extracts the anchor
// objects. The analyzer requires the module to contain the
// reproduction's core/storm/stream packages — it is a repository
// tool, not a general Go linter.
func resolveHooks(ld *loader) (*hooks, error) {
	h := &hooks{
		corePkg:  ld.module + "/internal/core",
		stormPkg: ld.module + "/internal/storm",
	}
	core, err := ld.load(h.corePkg)
	if err != nil {
		return nil, fmt.Errorf("lint: loading %s: %w", h.corePkg, err)
	}
	storm, err := ld.load(h.stormPkg)
	if err != nil {
		return nil, fmt.Errorf("lint: loading %s: %w", h.stormPkg, err)
	}
	strm, err := ld.load(ld.module + "/internal/stream")
	if err != nil {
		return nil, err
	}
	iface := func(scope *types.Scope, name string) (*types.Interface, error) {
		obj := scope.Lookup(name)
		if obj == nil {
			return nil, fmt.Errorf("lint: interface %s not found", name)
		}
		i, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, fmt.Errorf("lint: %s is not an interface", name)
		}
		return i, nil
	}
	if h.coreInstance, err = iface(core.Types.Scope(), "Instance"); err != nil {
		return nil, err
	}
	if h.coreOperator, err = iface(core.Types.Scope(), "Operator"); err != nil {
		return nil, err
	}
	if h.coreSnapshotter, err = iface(core.Types.Scope(), "Snapshotter"); err != nil {
		return nil, err
	}
	if h.stormBolt, err = iface(storm.Types.Scope(), "Bolt"); err != nil {
		return nil, err
	}
	if h.stormChanBolt, err = iface(storm.Types.Scope(), "ChannelBolt"); err != nil {
		return nil, err
	}
	if h.stormFlusher, err = iface(storm.Types.Scope(), "Flusher"); err != nil {
		return nil, err
	}
	if h.parAny = core.Types.Scope().Lookup("ParAny"); h.parAny == nil {
		return nil, fmt.Errorf("lint: core.ParAny not found")
	}
	if obj := strm.Types.Scope().Lookup("Event"); obj != nil {
		h.streamEvent = obj.Type()
	} else {
		return nil, fmt.Errorf("lint: stream.Event not found")
	}
	if obj := strm.Types.Scope().Lookup("Columns"); obj != nil {
		h.streamColumns = obj.Type()
	} else {
		return nil, fmt.Errorf("lint: stream.Columns not found")
	}
	// gob.Encoder is the one of the encoding/gob core's snapshot codec
	// falls back to, so the analyzer and the runtime can never disagree
	// about which encoder "gob-encodable" refers to.
	for _, imp := range core.Types.Imports() {
		if imp.Path() == "encoding/gob" {
			if obj := imp.Scope().Lookup("Encoder"); obj != nil {
				h.gobEncoder = obj.Type()
			}
		}
	}
	if h.gobEncoder == nil {
		return nil, fmt.Errorf("lint: core does not import encoding/gob's Encoder")
	}
	if named, ok := h.gobEncoder.(*types.Named); ok && named.Obj().Pkg() != nil {
		if obj := named.Obj().Pkg().Scope().Lookup("GobEncoder"); obj != nil {
			h.gobEncoderIface, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	return h, nil
}

// ctxKind classifies a hot context — which rules apply depends on it.
type ctxKind int

const (
	// ctxTemplate is a callback literal inside a core template (or
	// storm.CombinerSpec) composite literal. Such closures are owned by
	// the shared Operator value, so every parallel instance runs the
	// same closure: capture rules (DTT003) apply here.
	ctxTemplate ctxKind = iota
	// ctxMethod is a Next/NextFrom/Flush/Execute/Process method on a
	// type implementing a bolt/instance interface.
	ctxMethod
	// ctxClosure is a bolt-shaped function literal —
	// func(stream.Event, func(stream.Event)) with an optional leading
	// channel index — the form handcrafted topologies and BoltFunc
	// adapters use.
	ctxClosure
)

// hotCtx is one operator/bolt hot path: a function body executed by
// an executor for every event, where the determinism obligations
// hold.
type hotCtx struct {
	kind ctxKind
	pkg  *Package
	body *ast.BlockStmt
	// lit is the context's own literal (nil for methods); DTT003 uses
	// its extent to decide what "captured" means.
	lit *ast.FuncLit
	// emits are the context's emission callbacks: every function-typed
	// parameter of the context function.
	emits map[types.Object]bool
	// tmpl and field name the template type and callback field for
	// ctxTemplate contexts ("KeyedUnordered", "Combine"); empty
	// otherwise. DTT008 keys its commutativity obligation on them.
	tmpl  string
	field string
	// recv is the receiver object for ctxMethod contexts (nil
	// otherwise); DTT010 uses it to recognize the entry-rebind idiom.
	recv types.Object
	// params is the context function's parameter list.
	params *ast.FieldList
	// desc names the context in diagnostics.
	desc string
}

// callbackFields are the function-valued template fields whose
// literals run on the hot path. Less is Sort's comparator; In, ID,
// Combine, InitialState and UpdateState are the monoid/state hooks
// the templates require to be pure; MergeInto and Fold are
// KeyedUnordered's in-place monoid.
var callbackFields = map[string]bool{
	"OnItem": true, "OnMarker": true, "In": true, "ID": true,
	"Combine": true, "InitialState": true, "UpdateState": true,
	"MergeInto": true, "Fold": true, "Less": true,
}

// templateTypes are the core composite-literal types whose callback
// fields define hot contexts.
var templateTypes = map[string]bool{
	"Stateless": true, "KeyedOrdered": true, "KeyedUnordered": true,
	"SlidingAggregate": true, "Sort": true,
}

// hotMethodNames are the method names treated as bolt hot paths.
// ProcessCols runs once per column batch — the batched form of Next —
// so the ambient-nondeterminism and side-channel rules apply there
// too (batch retention has its own rule, DTT007).
var hotMethodNames = map[string]bool{
	"Next": true, "NextFrom": true, "Flush": true,
	"Execute": true, "Process": true, "ProcessCols": true,
	"ProcessBatch": true,
}

// collectContexts finds every hot context in the package. Composite
// literals are visited before the function literals they contain, so
// claimed marks template callbacks before the FuncLit case could
// classify them a second time as bolt-shaped closures.
func (a *analyzer) collectContexts(p *Package) []*hotCtx {
	var out []*hotCtx
	claimed := map[*ast.FuncLit]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if tn, pkgPath := namedOf(p.Info.TypeOf(n)); tn != "" {
					isTemplate := pkgPath == a.hooks.corePkg && templateTypes[tn]
					isCombiner := pkgPath == a.hooks.stormPkg && tn == "CombinerSpec"
					if isTemplate || isCombiner {
						a.templateContexts(p, n, tn, claimed, &out)
					}
				}
			case *ast.FuncDecl:
				if c := a.methodContext(p, n); c != nil {
					out = append(out, c)
				}
			case *ast.FuncLit:
				if !claimed[n] && a.isBoltShaped(p, n) {
					out = append(out, &hotCtx{
						kind: ctxClosure, pkg: p, body: n.Body, lit: n,
						emits:  funcTypeEmits(p, n.Type),
						params: n.Type.Params,
						desc:   "bolt closure",
					})
				}
			}
			return true
		})
	}
	return out
}

// templateContexts adds one context per function-literal callback
// field of a template composite literal.
func (a *analyzer) templateContexts(p *Package, lit *ast.CompositeLit, typeName string, claimed map[*ast.FuncLit]bool, out *[]*hotCtx) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !callbackFields[key.Name] {
			continue
		}
		fl, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			continue
		}
		claimed[fl] = true
		*out = append(*out, &hotCtx{
			kind: ctxTemplate, pkg: p, body: fl.Body, lit: fl,
			emits:  funcTypeEmits(p, fl.Type),
			params: fl.Type.Params,
			tmpl:   typeName, field: key.Name,
			desc: fmt.Sprintf("%s callback of %s", key.Name, typeName),
		})
	}
}

// methodContext classifies a hot-named method whose receiver
// implements one of the bolt/instance interfaces (or that carries an
// emission callback parameter, covering duck-typed user code).
func (a *analyzer) methodContext(p *Package, decl *ast.FuncDecl) *hotCtx {
	if decl.Recv == nil || decl.Body == nil || !hotMethodNames[decl.Name.Name] {
		return nil
	}
	fn, _ := p.Info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	h := a.hooks
	implements := typeImplements(rt, h.stormBolt) || typeImplements(rt, h.stormChanBolt) ||
		typeImplements(rt, h.stormFlusher) || typeImplements(rt, h.coreInstance)
	emits := funcTypeEmits(p, decl.Type)
	if !implements && len(emits) == 0 {
		return nil
	}
	recvName := types.TypeString(rt, types.RelativeTo(p.Types))
	return &hotCtx{
		kind: ctxMethod, pkg: p, body: decl.Body,
		emits:  emits,
		recv:   receiverObject(p, decl),
		params: decl.Type.Params,
		desc:   fmt.Sprintf("method (%s).%s", recvName, decl.Name.Name),
	}
}

// isBoltShaped reports whether a function literal has the storm bolt
// hot-path shape: (stream.Event, func(stream.Event)), optionally with
// a leading int channel index (the ChannelBolt form).
func (a *analyzer) isBoltShaped(p *Package, lit *ast.FuncLit) bool {
	sig, ok := p.Info.TypeOf(lit).(*types.Signature)
	if !ok || sig.Results().Len() != 0 {
		return false
	}
	params := sig.Params()
	i := 0
	if params.Len() == 3 {
		b, ok := params.At(0).Type().Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Int {
			return false
		}
		i = 1
	} else if params.Len() != 2 {
		return false
	}
	if !types.Identical(params.At(i).Type(), a.hooks.streamEvent) {
		return false
	}
	emit, ok := params.At(i + 1).Type().(*types.Signature)
	if !ok || emit.Params().Len() != 1 || emit.Results().Len() != 0 {
		return false
	}
	return types.Identical(emit.Params().At(0).Type(), a.hooks.streamEvent)
}

// funcTypeEmits collects the function-typed parameters of a context
// function: its emission callbacks.
func funcTypeEmits(p *Package, ft *ast.FuncType) map[types.Object]bool {
	out := map[types.Object]bool{}
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				out[obj] = true
			}
		}
	}
	return out
}

// typeImplements reports whether T or *T implements the interface.
func typeImplements(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// namedOf unwraps a (possibly pointer-to, possibly instantiated)
// named type to its type name and defining package path.
func namedOf(t types.Type) (name, pkgPath string) {
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name(), ""
	}
	return obj.Name(), obj.Pkg().Path()
}

// relTo renders name relative to root when possible.
func relTo(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// inspectShallow walks body without descending into nested function
// literals: the per-context rules analyze each function body exactly
// once, under its own context.
func inspectShallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
