package dinar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportGateExempt lists the internal packages that exist to serve tests, so
// their exports need no non-test caller.
var exportGateExempt = map[string]bool{
	"repro/internal/chaos":     true,
	"repro/internal/faultnet":  true,
	"repro/internal/leakcheck": true,
}

// testOnlyExports are the internal exports that only tests call, each with
// why it stays.
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
	"repro/internal/tensor.ForEachKernelISA":       "holds every kernel tier to the scalar loops of fl's and flnet's tier tests",
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
}

// TestEveryExportHasACaller fails for an exported top-level func, type, var
// or const under internal/ that no non-test file of the module references,
// the round benchmark and the examples included. Only this module can import
// an internal package, so such a symbol is code no program runs.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Position{} // "importpath.Name" -> declaration
	declIdents := map[*ast.Ident]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.pkg, module+"/internal/") || exportGateExempt[fl.pkg] {
			continue
		}
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				declared[fl.pkg+"."+id.Name] = fset.Position(id.Pos())
				declIdents[id] = true
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
					continue
				}
				// A method's receiver is part of its type's declaration,
				// not a use of the type.
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						declIdents[id] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		selectors := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !selectors[n] && !declIdents[n] {
					used[fl.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	for sym, pos := range declared {
		if !used[sym] && testOnlyExports[sym] == "" {
			dead = append(dead, pos.String()+": "+sym)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or list it in testOnlyExports with the reason it stays", d)
	}
	for sym := range testOnlyExports {
		if _, ok := declared[sym]; !ok {
			t.Errorf("testOnlyExports lists %s, which is not an export of a gated package", sym)
		} else if used[sym] {
			t.Errorf("testOnlyExports lists %s, which has a non-test caller: drop the entry", sym)
		}
	}
}
