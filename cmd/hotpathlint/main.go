// Command hotpathlint enforces the //rt:hotpath contract. A file carrying
// the tag has promised an allocation-free steady state (pinned by
// testing.AllocsPerRun), so two constructs are banned there:
//
//   - fmt.Sprintf — allocates its result string on every call, and a format
//     call creeping into a hot loop is the classic way a zero-alloc path
//     quietly regresses (fmt.Errorf on error paths is fine: errors are cold).
//   - range over a map — hides a hash-table walk with randomized order
//     behind innocent syntax; hot paths index slices.
//   - indexing a map, comma-ok form included — a hash and probe per lookup
//     where a dense slice indexed by the key is one load.
//
// Usage: hotpathlint [dir ...] (default "."). The tool scans every non-test
// .go file under the roots (skipping testdata), type-checks each package
// that contains a tagged file so map detection is exact rather than
// name-based, and prints one file:line per violation, exiting non-zero if
// any were found.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const tag = "//rt:hotpath"

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	tagged, err := findTagged(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotpathlint:", err)
		os.Exit(2)
	}
	byDir := map[string]map[string]bool{}
	for _, f := range tagged {
		dir := filepath.Dir(f)
		if byDir[dir] == nil {
			byDir[dir] = map[string]bool{}
		}
		byDir[dir][f] = true
	}
	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var violations []string
	for _, dir := range dirs {
		vs, err := lintDir(dir, byDir[dir])
		if err != nil {
			fmt.Fprintln(os.Stderr, "hotpathlint:", err)
			os.Exit(2)
		}
		violations = append(violations, vs...)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// findTagged returns every non-test .go file under the roots whose source
// contains the //rt:hotpath tag, skipping testdata and hidden directories.
func findTagged(roots []string) ([]string, error) {
	var out []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || (strings.HasPrefix(name, ".") && name != "." && name != "..") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if hasTag(string(src)) {
				out = append(out, filepath.Clean(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hasTag reports whether the source opts in: the tag must begin a comment
// line, so prose or string literals that merely mention it don't tag a file.
func hasTag(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), tag) {
			return true
		}
	}
	return false
}

// lintDir type-checks the package in dir (all non-test files, so tagged
// files resolve their intra-package references) and walks the tagged files'
// ASTs for banned constructs.
func lintDir(dir string, tagged map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, pkg := range pkgs {
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			files = append(files, pkg.Files[name])
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", dir, err)
		}
		for _, name := range names {
			if !tagged[filepath.Clean(name)] {
				continue
			}
			violations = append(violations, lintFile(fset, info, pkg.Files[name])...)
		}
	}
	return violations, nil
}

// lintFile reports every fmt.Sprintf call, map range and map index in one
// tagged file.
func lintFile(fset *token.FileSet, info *types.Info, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, msg string) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(pos), msg))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
				if id, ok := sel.X.(*ast.Ident); ok && isPackage(info, id, "fmt") {
					report(n.Pos(), "fmt.Sprintf in "+tag+" file (allocates per call; format off the hot path)")
				}
			}
		case *ast.RangeStmt:
			if isMap(info, n.X) {
				report(n.Pos(), "map iteration in "+tag+" file (hash walk, randomized order; index a slice instead)")
			}
		case *ast.IndexExpr:
			if isMap(info, n.X) {
				report(n.Pos(), "map index in "+tag+" file (hash and probe per lookup; index a dense slice instead)")
			}
		}
		return true
	})
	return out
}

// isMap reports whether e has a map type.
func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, m := tv.Type.Underlying().(*types.Map)
	return m
}

// isPackage reports whether id resolves to the named imported package.
func isPackage(info *types.Info, id *ast.Ident, path string) bool {
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
