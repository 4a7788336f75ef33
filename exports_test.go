package dinar

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportGateExempt lists the internal packages that exist to serve tests, so
// their exports need no non-test caller.
var exportGateExempt = map[string]bool{
	"repro/internal/chaos":      true,
	"repro/internal/faultnet":   true,
	"repro/internal/kerneltest": true,
	"repro/internal/leakcheck":  true,
}

// testOnlyExports are the internal exports that only tests call, each with
// why it stays. An entry for a type covers its methods and fields.
var testOnlyExports = map[string]string{
	"repro/internal/checkpoint.Save":               "in-memory seam the checkpoint fuzzers drive",
	"repro/internal/checkpoint.Load":               "in-memory seam the checkpoint fuzzers drive",
	"repro/internal/checkpoint.SavePrivate":        "in-memory seam the checkpoint fuzzers drive",
	"repro/internal/checkpoint.LoadPrivate":        "in-memory seam the checkpoint fuzzers drive",
	"repro/internal/checkpoint.LoadPrivateFile":    "reads back what the private-store tests wrote",
	"repro/internal/flnet.ReadMessage":             "test decoder for frames written by hand",
	"repro/internal/telemetry.DecodeHealth":        "test decoder for the /healthz JSON",
	"repro/internal/tensor.MatMul":                 "naive reference the blocked GEMM is checked against",
	"repro/internal/tensor.MatMulTransA":           "naive reference the blocked GEMM is checked against",
	"repro/internal/tensor.MatMulTransB":           "naive reference the blocked GEMM is checked against",
	"repro/internal/tensor.Transpose2D":            "builds the transposed operands of the GEMM references",
	"repro/internal/tensor.MustFromSlice":          "tensor fixture constructor",
	"repro/internal/nn.NewTanh":                    "unfused reference DenseAct(ActTanh) is held bit-identical to",
	"repro/internal/tensor.ForEachKernelISA":       "the tier loop the kernel harness (internal/kerneltest) runs the nn, fl and flnet rows on",
	"repro/internal/data.SkewMetric":               "reference of the Dirichlet partition test",
	"repro/internal/defense.ExtendedNames":         "row set of TestSystemMatchesTCP",
	"repro/internal/adversary.Mark":                "schedule of the chaos soak",
	"repro/internal/attack.NewConfidenceAttack":    "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.NewEntropyAttack":       "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.NewGradientAttack":      "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.NewLayerGradientAttack": "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.NewInverter":            "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.ReconstructionScore":    "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.PropertyAttack":         "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/attack.Inverter":               "test-only attack; ROADMAP item 7 decides whether it joins Fig 6",
	"repro/internal/data.Dataset.Batch":            "reference the shuffled batches of TestBatchesMatchesShuffled are checked against",
	"repro/internal/fl.Client.EnableRoundReplay":   "seam the chaos soak turns on to replay a restarted client's round",
	"repro/internal/service.Job.FinalState":        "oracle of the resume-identity tests",
	"repro/internal/flnet.Server.Events":           "event ring the chaos soak reads",
}

// TestEveryExportHasACaller fails for an exported top-level name, exported
// method or exported struct field under internal/ that no non-test file of
// the module or of the round benchmark's module uses, the examples included.
// Only these two modules can import an internal package, so such a name is
// code no program runs.
func TestEveryExportHasACaller(t *testing.T) {
	dead, stale, err := deadExports(".", exportGateExempt, testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or list it in testOnlyExports with the reason it stays", d)
	}
	for _, s := range stale {
		t.Error(s)
	}
}

// TestExportGateFixture runs the gate over a planted module tree and holds it
// to exactly the dead method, the dead field and the pair that names only
// each other planted there.
func TestExportGateFixture(t *testing.T) {
	dead, stale, err := deadExports(filepath.Join("testdata", "exportgate"), nil, map[string]string{
		"fixture/internal/lib.Seam":   "test seam: covers its method and field",
		"fixture/internal/lib.NewRef": "test seam: keeps the type it returns",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d[strings.LastIndex(d, " ")+1:])
	}
	sort.Strings(got)
	want := []string{"fixture/internal/lib.NewOrphan", "fixture/internal/lib.Orphan", "fixture/internal/lib.Widget.Dead", "fixture/internal/lib.Widget.Unused"}
	if !reflect.DeepEqual(got, want) || len(stale) != 0 {
		t.Errorf("dead = %q, stale = %q; want dead %q and nothing stale", dead, stale, want)
	}
}

// deadExports type-checks the module at root and, if there is one, the module
// in root/benchmark, and returns, as "position: symbol", every exported
// top-level name, exported method and exported struct field of the root
// module's internal packages that no non-test file uses. Symbols read
// "path.Name" or "path.Type.Name"; embedded fields are not gated. A name
// counts as used when a live declaration refers to it (types.Info.Uses,
// which also records a method or field selected through embedding), when it
// is a method that makes its type (or a type it is promoted into) satisfy
// an interface that some file names, when it is String() string or Error()
// string, or when it is a tagged field, which a codec reads by reflection.
// Every top-level declaration that is not a gated export is live, and a
// gated one is live once a live declaration uses it or one of its methods
// or fields; a type's methods belong to the type's declaration, and a
// blank var (var _ I = (*T)(nil)) is never live. So a constructor that only
// its type's own method calls, and a type that only that constructor and a
// blank assertion name, are dead together. Generic types are not checked
// against interfaces. Packages in exempt are not gated; allow lists the
// test-only names that stay, an entry for a type covers its methods and
// fields, and a listed name's declaration is live for what it uses. stale
// reports allow entries that are not gated names or that keep nothing
// unused.
func deadExports(root string, exempt map[string]bool, allow map[string]string) (dead, stale []string, err error) {
	l := &gateLoader{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		listed: map[string]listedPkg{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	var order []string
	module := ""
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		pkgs, err := goList(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkgs {
			if module == "" {
				module = p.Module.Path
			}
			l.listed[p.ImportPath] = p
			order = append(order, p.ImportPath)
		}
	}
	for _, path := range order {
		if _, err := l.Import(path); err != nil {
			return nil, nil, err
		}
	}

	gated := func(path string) bool { return strings.HasPrefix(path, module+"/internal/") && !exempt[path] }
	g := l.declGraph(order, gated)

	byMethod := map[string][]*types.Interface{} // method name -> interfaces that have it
	seen := map[*types.Interface]bool{}
	for _, tv := range l.info.Types {
		it, ok := tv.Type.Underlying().(*types.Interface)
		if !ok || seen[it] {
			continue
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}

	// A method is used when it makes a type satisfy an interface some file
	// names, and a method promoted into that type counts as well.
	satisfies := map[types.Object]bool{}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				for _, it := range byMethod[m.Name()] {
					if types.Implements(ptr, it) {
						satisfies[m] = true
						break
					}
				}
			}
		}
	}

	// A gated name is unused when no live declaration refers to it and no
	// other rule counts it. The names unused with only the ungated
	// declarations live are dead unless listed; a listed one's declaration
	// then goes live, and what only it uses is not reported.
	used := g.reach()
	type gatedName struct {
		sym, owner string // owner: the declaring type's symbol for a method or field
		obj        types.Object
	}
	declared := map[string]bool{}
	var unused []gatedName
	gate := func(sym, owner string, obj types.Object, isUsed bool) {
		declared[sym] = true
		if !isUsed && !used[obj] {
			unused = append(unused, gatedName{sym, owner, obj})
		}
	}
	for _, path := range order {
		pkg := l.pkgs[path]
		if !gated(path) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				gate(path+"."+name, "", obj, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					gate(path+"."+name+"."+m.Name(), path+"."+name, m, alwaysUsed(m) || satisfies[m])
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						gate(path+"."+name+"."+f.Name(), path+"."+name, f, st.Tag(i) != "")
					}
				}
			}
		}
	}
	needed := map[string]bool{} // allowlist entries that keep an unused name
	for _, n := range unused {
		for _, entry := range []string{n.sym, n.owner} {
			if _, ok := allow[entry]; ok {
				needed[entry] = true
				if u := g.unitOf[n.obj]; u != nil {
					g.roots[u] = true
				}
				break
			}
		}
	}
	used = g.reach()
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range unused {
		_, listed := allow[n.sym]
		_, ownerListed := allow[n.owner]
		if used[n.obj] || listed || ownerListed {
			continue
		}
		pos := l.fset.Position(n.obj.Pos())
		if rel, err := filepath.Rel(absRoot, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, pos.String()+": "+n.sym)
	}
	sort.Strings(dead)
	for sym := range allow {
		if !declared[sym] {
			stale = append(stale, fmt.Sprintf("the allowlist names %s, which is not an export of a gated package", sym))
		} else if !needed[sym] {
			stale = append(stale, fmt.Sprintf("the allowlist names %s, which has a non-test caller, as does all it covers: drop the entry", sym))
		}
	}
	sort.Strings(stale)
	return dead, stale, nil
}

// alwaysUsed reports whether m is String() string or Error() string, which
// the fmt verbs and the error interface call on any value.
func alwaysUsed(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	if (m.Name() != "String" && m.Name() != "Error") || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.String
}

// listedPkg is the part of `go list -json` the gate reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     struct{ Path string }
}

// goList lists the packages of the module in dir, with the non-test files the
// host's build constraints select.
func goList(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// declGraph is who uses whom among the top-level declarations of the
// loaded packages. A unit is the object that keys one declaration: a func,
// a type (whose methods and fields belong to it) or the first name of a var
// or const spec.
type declGraph struct {
	unitOf map[types.Object]types.Object   // declared object -> its unit
	uses   map[types.Object][]types.Object // unit -> the objects it refers to
	roots  map[types.Object]bool           // units that are live whatever uses them
}

// declGraph attributes every use in the packages of order to the
// declaration it sits in. A declaration whose unit is not an exported name
// of a package gated accepts is a root; a blank var spec gets no unit, so
// its uses never count.
func (l *gateLoader) declGraph(order []string, gated func(path string) bool) *declGraph {
	g := &declGraph{unitOf: map[types.Object]types.Object{}, uses: map[types.Object][]types.Object{}, roots: map[types.Object]bool{}}
	// record adds unit's declaration node; a nil unit records nothing.
	record := func(path string, unit types.Object, node ast.Node) {
		if unit == nil {
			return
		}
		if !unit.Exported() || !gated(path) {
			g.roots[unit] = true
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] != nil {
				g.uses[unit] = append(g.uses[unit], origin(l.info.Uses[id]))
			}
			return true
		})
	}
	for _, path := range order {
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					unit := l.info.Defs[d.Name]
					if recv := unit.Type().(*types.Signature).Recv(); recv != nil {
						unit = namedOf(recv.Type()).Obj()
					}
					g.unitOf[unit] = unit
					record(path, unit, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							tn := l.info.Defs[sp.Name].(*types.TypeName)
							g.unitOf[tn] = tn
							if named, ok := tn.Type().(*types.Named); ok {
								for i := 0; i < named.NumMethods(); i++ {
									g.unitOf[named.Method(i)] = tn
								}
								switch u := named.Underlying().(type) {
								case *types.Struct:
									for i := 0; i < u.NumFields(); i++ {
										g.unitOf[u.Field(i)] = tn
									}
								case *types.Interface:
									for i := 0; i < u.NumExplicitMethods(); i++ {
										g.unitOf[u.ExplicitMethod(i)] = tn
									}
								}
							}
							record(path, tn, sp)
						case *ast.ValueSpec:
							var unit types.Object
							for _, name := range sp.Names {
								if obj := l.info.Defs[name]; obj != nil && name.Name != "_" {
									if unit == nil {
										unit = obj
									}
									g.unitOf[obj] = unit
								}
							}
							record(path, unit, sp)
						}
					}
				}
			}
		}
	}
	return g
}

// reach returns every object a live unit refers to, the roots being live
// and a unit going live once a live one refers to an object it declares.
func (g *declGraph) reach() map[types.Object]bool {
	used := map[types.Object]bool{}
	live := map[types.Object]bool{}
	var work []types.Object
	for u := range g.roots {
		live[u] = true
		work = append(work, u)
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, obj := range g.uses[u] {
			used[obj] = true
			if v := g.unitOf[obj]; v != nil && !live[v] {
				live[v] = true
				work = append(work, v)
			}
		}
	}
	return used
}

// origin maps a use of an instantiated generic method or field to the
// declared one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedOf returns the named type of a method receiver, through a pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// gateLoader type-checks module packages from source, each once and into one
// shared types.Info, and serves every other import from the standard
// library's export data. Sharing the objects lets a method of one package
// satisfy an interface of another.
type gateLoader struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]listedPkg
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   *types.Info
}

func (l *gateLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}
