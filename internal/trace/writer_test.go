package trace_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneTraceEventWriter pins WriteChrome as the module's only Chrome
// trace_event writer: no non-test file outside internal/trace may spell
// the "traceEvents" envelope. A second exporter must render through
// WriteChrome instead of growing its own copy of the envelope loop.
func TestOneTraceEventWriter(t *testing.T) {
	const root = "../.."
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module hic\n") {
		t.Fatalf("%s is not the module root (go.mod: %v)", root, err)
	}
	var inTrace, outside []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, pos := range envelopeLiterals(f) {
			at := rel + ":" + strconv.Itoa(fset.Position(pos).Line)
			if filepath.Dir(rel) == filepath.Join("internal", "trace") {
				inTrace = append(inTrace, at)
			} else {
				outside = append(outside, at)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outside) > 0 {
		t.Errorf("trace_event envelope written outside internal/trace (use trace.WriteChrome): %s",
			strings.Join(outside, ", "))
	}
	if len(inTrace) != 1 {
		t.Errorf("internal/trace spells the envelope %d times (%s), want exactly once",
			len(inTrace), strings.Join(inTrace, ", "))
	}
}

// envelopeLiterals returns the positions of string literals containing
// the "traceEvents" key, struct tags excepted (a reader may decode it).
func envelopeLiterals(f *ast.File) []token.Pos {
	tags := map[*ast.BasicLit]bool{}
	var found []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if n.Tag != nil {
				tags[n.Tag] = true
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING || tags[n] {
				return true
			}
			if s, err := strconv.Unquote(n.Value); err == nil && strings.Contains(s, `"traceEvents"`) {
				found = append(found, n.Pos())
			}
		}
		return true
	})
	return found
}
