package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestRunSurface pins the run entry points: every scenario funnels
// through a handful of exported Run* functions instead of one variant
// per combination of batching, caching, routing and instrumentation.
// Growing the surface back needs a deliberate edit here.
func TestRunSurface(t *testing.T) {
	for _, c := range []struct {
		dir string
		max int
	}{
		{".", 5},        // internal/core
		{"../sweep", 2}, // internal/sweep
	} {
		names := exportedRunFuncs(t, c.dir)
		if len(names) > c.max {
			t.Errorf("%s exports %d Run* functions, want at most %d: %s",
				c.dir, len(names), c.max, strings.Join(names, ", "))
		}
	}
}

// exportedRunFuncs lists the package-level (receiver-less) exported
// functions named Run* declared in dir's non-test Go files.
func exportedRunFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "Run") {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no Run* functions found — wrong directory?", dir)
	}
	sort.Strings(names)
	return names
}
