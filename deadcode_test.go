package gridmind_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllow lists the functions the unused-function gate keeps
// although no non-test code calls them, one reason each. Keys are
// "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var deadcodeAllow = map[string]string{
	"gridmind/internal/model.CloneCount":                    "test hook: the zero-clone tests pin Network.Clone calls at 0",
	"gridmind/internal/model.MaterializeCount":              "test hook: the outage-study tests pin OutageView.Materialize calls at 0",
	"gridmind/internal/model.OutageView.Materialize":        "test hook: the view tests compare a rendered network against the patched view",
	"gridmind/internal/contingency.SweepPool.ContextBuilds": "test hook: the pool tests count fresh worker builds",
	"gridmind/internal/contingency.SweepPool.ContextReuses": "test hook: the pool tests count pooled worker reuses",
	"gridmind/internal/contingency.AnalyzeGenOutages":       "benchmark hook: BenchmarkGenSweepCase57 times the generator sweep",
	"gridmind/internal/llm.NewFaultClient":                  "test hook: the gateway chaos suite injects faults through it",
	"gridmind/internal/cases.MustLoad":                      "test hook: tests and benchmarks load cases without error plumbing",
	"gridmind/internal/sparse.CSC.ColView":                  "test hook: the OPF reference test walks KKT columns for its RCM ordering",
	"gridmind/internal/sparse.CSC.Has":                      "test hook: the pattern tests probe structural nonzeros",
	"gridmind/internal/powerflow.OrderingCache.Misses":      "test hook: the compile-once tests count ordering misses",
	"gridmind/internal/session.Context.NetworkStats":        "test hook: the snapshot tests read the network cache's hit and replay counts",
	"gridmind/internal/session.Context.DropSnapshot":        "benchmark hook: BenchmarkSessionNetworkReplay times the cold replay",
	"gridmind/internal/metrics.Recorder.Dropped":            "test hook: the ring-bound test reads how many rows the ring overwrote",
	"gridmind/internal/obs.Histogram.Count":                 "test hook: the obs tests read a histogram's sample count",
	"gridmind/internal/sparse.colSorter.Less":               "sort.Interface: sort.Sort calls it",
	"gridmind/internal/sparse.colSorter.Swap":               "sort.Interface: sort.Sort calls it",
}

// TestNoUnusedFunctions fails when a function or method is declared in a
// non-test file and no non-test code refers to it: cmd, examples and the
// bench/e2e module count as callers, tests do not. Exported names of the
// root package, and the methods of every type gridmind.go re-exports as
// an alias, are public API and count as used.
//
// The scan is syntactic. A package-level function is used when its
// package names it bare or another package names it through its import;
// a method is used when any selector of that name appears, which also
// covers calls through an interface. A function naming itself inside its
// own body does not count.
func TestNoUnusedFunctions(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, owner, name, pos string
		method                bool
	}
	var decls []decl
	funcRefs := map[string]bool{}   // "<import path>.<Name>"
	methodRefs := map[string]bool{} // "<Name>"
	public := map[string]bool{}     // "<import path>.<Type>" re-exported by gridmind.go

	walk := func(dir, importPath string, declare bool) {
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || (declare && name == "bench")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkg := path.Join(importPath, filepath.ToSlash(rel))
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			scanFile(f, pkg, funcRefs, methodRefs)
			if !declare {
				return nil
			}
			if pkg == importPath && filepath.Base(p) == "gridmind.go" {
				for k := range aliasTargets(f) {
					public[k] = true
				}
			}
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
					continue
				}
				if pkg == importPath && fd.Name.IsExported() {
					continue
				}
				d := decl{owner: pkg, name: fd.Name.Name, pos: fset.Position(fd.Pos()).String(), method: fd.Recv != nil}
				if d.method {
					d.owner += "." + recvType(fd.Recv.List[0].Type)
				}
				d.key = d.owner + "." + d.name
				decls = append(decls, d)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk(".", "gridmind", true)
	walk(filepath.Join("bench", "e2e"), "gridmind/bench/e2e", false)

	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := d.method && (methodRefs[d.name] || public[d.owner]) || !d.method && funcRefs[d.key]
		_, allowed := deadcodeAllow[d.key]
		switch {
		case used && allowed:
			t.Errorf("allowlist entry %s has a non-test caller; delete the entry", d.key)
		case !used && !allowed:
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	for k := range deadcodeAllow {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no declared function; delete it", k)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test code calls %s: delete it, move it into a _test.go file, or add it to deadcodeAllow with a reason", u)
	}
}

// scanFile records the names f refers to: a pkg.Name selector through an
// import as a function of that package, any other selector as a method
// name, and any other identifier as a function of f's own package. A
// function's own name, in its declaration or its body, is no reference.
func scanFile(f *ast.File, pkg string, funcRefs, methodRefs map[string]bool) {
	imports := fileImports(f)
	skip := map[*ast.Ident]bool{}
	for _, dl := range f.Decls {
		self := ""
		if fd, ok := dl.(*ast.FuncDecl); ok {
			skip[fd.Name] = true
			if fd.Recv == nil {
				self = fd.Name.Name
			}
		}
		ast.Inspect(dl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcRefs[imports[id.Name]+"."+x.Sel.Name] = true
					return false
				}
				methodRefs[x.Sel.Name] = true
				skip[x.Sel] = true
			case *ast.Ident:
				if !skip[x] && x.Name != self {
					funcRefs[pkg+"."+x.Name] = true
				}
			}
			return true
		})
	}
}

// fileImports maps each import name in f to its import path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		name := path.Base(p)
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// aliasTargets returns "<import path>.<Type>" for each alias in f that
// re-exports a type of another package (type X = pkg.T).
func aliasTargets(f *ast.File) map[string]bool {
	imports := fileImports(f)
	out := map[string]bool{}
	for _, dl := range f.Decls {
		gd, ok := dl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts := s.(*ast.TypeSpec)
			if !ts.Assign.IsValid() {
				continue
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
					out[imports[id.Name]+"."+sel.Sel.Name] = true
				}
			}
		}
	}
	return out
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
