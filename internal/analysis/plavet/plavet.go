// Package plavet is a repo-specific vet pass enforcing the audit-trail
// write discipline: the audit log's writers report whether the line
// reached the sink, and every production caller decides visibly, at the
// call site, whether that outcome refuses what it is doing (a render) or
// is deliberately ignored.
//
// One rule, with a stable code:
//
//	PV002  the result of (*audit.Log).AppendChecked or
//	       .DecisionTracedChecked is silently dropped (a bare expression
//	       statement, or a go/defer call). The sanctioned discard is the
//	       explicit `_, _ =` assignment, which a reviewer can see.
//
// The pass is built only on the standard library (go/parser, go/types,
// and the gc importer over the compiler export data `go list -export`
// reports), so it adds no module dependencies; matching is type-based via
// types.Func.FullName, so unrelated Append methods (e.g.
// relation.Table.Append) are never flagged.
package plavet

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// auditPkg is the package of the audit log's writers.
const auditPkg = "plabi/internal/audit"

// checkedWriters are the methods whose (seq, error) results must not be
// silently dropped.
var checkedWriters = map[string]bool{
	"(*" + auditPkg + ".Log).AppendChecked":         true,
	"(*" + auditPkg + ".Log).DecisionTracedChecked": true,
}

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Code    string // "PV002"
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Code, f.Message)
}

// Checker type-checks package directories and runs the vet rules. It
// reads what a vetted package imports from compiler export data, which the
// go command lists once per Checker for the whole enclosing module and
// its dependencies (building what the build cache lacks); one Checker
// shares that list, a file set and the imported packages across calls.
type Checker struct {
	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// NewChecker returns a ready Checker.
func NewChecker() *Checker {
	c := &Checker{fset: token.NewFileSet()}
	c.imp = importer.ForCompiler(c.fset, "gc", c.lookup)
	return c
}

// lookup opens the export data of the package at path.
func (c *Checker) lookup(path string) (io.ReadCloser, error) {
	file := c.exports[path]
	if file == "" {
		return nil, fmt.Errorf("plavet: no export data for %q", path)
	}
	return os.Open(file)
}

// listExports returns the export data file of every package the module at
// root builds, and of every package they import.
func listExports(root string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("plavet: go list -export in %s: %v: %s", root, err, stderr.Bytes())
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if path, file, ok := strings.Cut(sc.Text(), "="); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, sc.Err()
}

// Dir parses and type-checks the non-test Go files of one package
// directory and returns the rule violations, sorted by position. A
// directory without Go files yields no findings and no error.
func (c *Checker) Dir(dir string) ([]Finding, error) {
	pkgs, err := parser.ParseDir(c.fset, dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), ".go") && !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("plavet: parse %s: %w", dir, err)
	}
	root, pkgPath, err := importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if c.exports == nil {
		if c.exports, err = listExports(root); err != nil {
			return nil, err
		}
	}
	var out []Finding
	for _, name := range sortedPkgNames(pkgs) {
		files := sortedFiles(c.fset, pkgs[name])
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: c.imp}
		if _, err := conf.Check(pkgPath, c.fset, files, info); err != nil {
			return nil, fmt.Errorf("plavet: typecheck %s: %w", dir, err)
		}
		out = append(out, check(c.fset, files, info)...)
	}
	sortFindings(out)
	return out, nil
}

// Tree walks root and vets every package directory under it, skipping
// testdata, vendor and hidden directories. Findings come back sorted by
// position.
func (c *Checker) Tree(root string) ([]Finding, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("plavet: walk %s: %w", root, err)
	}
	var out []Finding
	for _, dir := range dirs {
		fs, err := c.Dir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sortFindings(out)
	return out, nil
}

// check runs the rule over one type-checked package.
func check(fset *token.FileSet, files []*ast.File, info *types.Info) []Finding {
	var out []Finding
	for _, f := range files {
		// Calls whose results vanish without an assignment: bare
		// expression statements plus go/defer statements.
		dropped := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					dropped[call] = true
				}
			case *ast.GoStmt:
				dropped[s.Call] = true
			case *ast.DeferStmt:
				dropped[s.Call] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if checkedWriters[fn.FullName()] && dropped[call] {
				out = append(out, Finding{
					Pos:  fset.Position(call.Lparen),
					Code: "PV002",
					Message: fmt.Sprintf("result of %s.%s dropped: the sink outcome decides whether a render is delivered; handle the error or discard explicitly with `_, _ =`",
						shortRecv(fn), fn.Name()),
				})
			}
			return true
		})
	}
	return out
}

// calleeFunc resolves the method a call expression invokes, or nil for
// non-selector calls (plain functions, conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	return fn
}

// shortRecv renders a method's receiver as "audit.Log" for messages.
func shortRecv(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Pkg().Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return t.String()
}

// importPathFor derives a directory's import path from the enclosing
// go.mod (module line + relative path) so the type-checker's package
// path is exact; root is the module's directory.
func importPathFor(dir string) (root, pkgPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", fmt.Errorf("plavet: resolve %s: %w", dir, err)
	}
	root = abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			mod := moduleName(string(data))
			if mod == "" {
				return "", "", fmt.Errorf("plavet: %s/go.mod has no module line", root)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return "", "", err
			}
			if rel == "." {
				return root, mod, nil
			}
			return root, mod + "/" + filepath.ToSlash(rel), nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", "", fmt.Errorf("plavet: no go.mod above %s", dir)
		}
		root = parent
	}
}

func moduleName(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func sortedPkgNames(pkgs map[string]*ast.Package) []string {
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedFiles(fset *token.FileSet, pkg *ast.Package) []*ast.File {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	return files
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Code < b.Code
	})
}
