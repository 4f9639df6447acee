package netanomaly_test

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

// TestNoUnreachableInternalAPI fails on an exported func or method
// declared in internal/ that no non-test code in this module or in the
// bench/ module references. Code that only its own package's tests call
// belongs in a _test.go file of that package; code nothing calls is
// deleted. A reference from another package's tests counts, because such
// a helper cannot move into a test file.
//
// The scan is syntactic (stdlib go/parser, no type checking):
//   - a package-level func p.F is used if another package selects p.F
//     under its import name for p, or a non-test file of p names F
//     outside F's own body;
//   - a method M is used if any selector x.M on a value (not an
//     imported package) appears, whatever x's type, so calls through
//     an interface count;
//   - methods of the types that the root package re-exports with
//     `type X = p.Y` are public API and are not checked.
//
// Nothing else is exempt. A method reached only from the standard
// library (a String that only fmt calls) would need an exemption here.
func TestNoUnreachableInternalAPI(t *testing.T) {
	files := parseModule(t)

	// Package name per directory, for imports without an explicit name.
	pkgName := map[string]string{}
	for _, f := range files {
		if !f.test {
			pkgName[f.dir] = f.ast.Name.Name
		}
	}
	aliased := rootAliases(files, pkgName)

	refs := collectRefs(files, pkgName)
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key, what := refKey{pkg: f.dir, name: fd.Name.Name}, f.dir+"."+fd.Name.Name
			if fd.Recv != nil {
				recv := recvTypeName(fd.Recv.List[0].Type)
				if aliased[f.dir+"."+recv] {
					continue
				}
				key.pkg, what = "", f.dir+".("+recv+")."+fd.Name.Name
			}
			used, ownTest := refs.uses(key, f.dir)
			switch {
			case used:
			case ownTest:
				t.Errorf("%s: %s is called only by its own package's tests: move it into a _test.go file of %s or delete it",
					f.fset.Position(fd.Pos()), what, f.dir)
			default:
				t.Errorf("%s: %s has no caller: delete it", f.fset.Position(fd.Pos()), what)
			}
		}
	}
}

// TestEveryOptionHasACaller fails on an exported root func returning a
// ViewOption, MonitorOption or CorrelatorOption that no non-test file
// outside examples/ selects as netanomaly.F. The commands and the bench/
// module count as callers. An option only tests and examples set is a
// knob nobody turns: make its value a constant and delete the option.
func TestEveryOptionHasACaller(t *testing.T) {
	files := parseModule(t)
	pkgName := map[string]string{}
	for _, f := range files {
		if !f.test {
			pkgName[f.dir] = f.ast.Name.Name
		}
	}
	optionTypes := map[string]bool{"ViewOption": true, "MonitorOption": true, "CorrelatorOption": true}
	selected := map[string]bool{}
	for _, f := range files {
		if f.test || f.dir == "examples" || strings.HasPrefix(f.dir, "examples/") {
			continue
		}
		imports := importDirs(f.ast, pkgName)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] == "." {
					selected[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range files {
		if f.test || f.dir != "." {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			res, ok := fd.Type.Results.List[0].Type.(*ast.Ident)
			if !ok || !optionTypes[res.Name] || selected[fd.Name.Name] {
				continue
			}
			t.Errorf("%s: %s returns a %s that no command, benchmark or other non-test code sets: make its value a constant and delete it",
				f.fset.Position(fd.Pos()), fd.Name.Name, res.Name)
		}
	}
}

type parsedFile struct {
	dir  string // slash path relative to the repository root
	test bool
	fset *token.FileSet
	ast  *ast.File
}

// parseModule parses every .go file of the root module and of the
// nested bench/ module, skipping testdata and hidden directories.
func parseModule(t *testing.T) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			test: strings.HasSuffix(name, "_test.go"),
			fset: fset,
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found")
	}
	return files
}

// importDirs maps a file's local import names to repository directories,
// for imports of this module's packages only.
func importDirs(f *ast.File, pkgName map[string]string) map[string]string {
	const module = "netanomaly"
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		var dir string
		switch {
		case p == module:
			dir = "."
		case strings.HasPrefix(p, module+"/"):
			dir = strings.TrimPrefix(p, module+"/")
		default:
			continue
		}
		local := pkgName[dir]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == "" || local == "_" || local == "." {
			continue
		}
		out[local] = dir
	}
	return out
}

// rootAliases returns "dir.Type" for every internal type the root
// package re-exports with a type alias.
func rootAliases(files []parsedFile, pkgName map[string]string) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		if f.dir != "." || f.test {
			continue
		}
		imports := importDirs(f.ast, pkgName)
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if !ts.Assign.IsValid() {
					continue
				}
				sel, ok := unwrapType(ts.Type).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					out[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
		}
	}
	return out
}

// unwrapType strips pointers and generic instantiation from a type
// expression.
func unwrapType(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

func recvTypeName(e ast.Expr) string {
	if id, ok := unwrapType(e).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// refKey names what a reference points at: a package-level func name
// of the package in directory pkg, or, with pkg empty, a method name.
type refKey struct{ pkg, name string }

// refSite is where a reference appears.
type refSite struct {
	dir  string
	test bool
}

// refIndex maps each referenced name to the sites that reference it.
type refIndex map[refKey]map[refSite]bool

func (r refIndex) add(k refKey, s refSite) {
	if r[k] == nil {
		r[k] = map[refSite]bool{}
	}
	r[k][s] = true
}

// uses reports whether k is referenced from outside declDir's own tests,
// and whether declDir's own tests reference it.
func (r refIndex) uses(k refKey, declDir string) (used, ownTest bool) {
	for s := range r[k] {
		if s.dir == declDir && s.test {
			ownTest = true
		} else {
			used = true
		}
	}
	return used, ownTest
}

func collectRefs(files []parsedFile, pkgName map[string]string) refIndex {
	refs := refIndex{}
	for _, f := range files {
		imports := importDirs(f.ast, pkgName)
		site := refSite{dir: f.dir, test: f.test}
		// walk records the references under n. self is the name of the
		// enclosing package-level func, whose recursive calls don't count.
		var walk func(n ast.Node, self string)
		walk = func(n ast.Node, self string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := imports[id.Name]; ok {
							refs.add(refKey{pkg: dir, name: x.Sel.Name}, site)
							return false
						}
					}
					refs.add(refKey{name: x.Sel.Name}, site)
					walk(x.X, self)
					return false
				case *ast.FuncDecl:
					if x.Recv == nil {
						self = x.Name.Name
					} else {
						walk(x.Recv, self)
					}
					walk(x.Type, self)
					if x.Body != nil {
						walk(x.Body, self)
					}
					return false
				case *ast.Field:
					// Field and parameter names declare; only the type refers.
					walk(x.Type, self)
					return false
				case *ast.KeyValueExpr:
					// A struct literal's field key is not a reference.
					if _, ok := x.Key.(*ast.Ident); !ok {
						walk(x.Key, self)
					}
					walk(x.Value, self)
					return false
				case *ast.Ident:
					if x.Name != self {
						refs.add(refKey{pkg: f.dir, name: x.Name}, site)
					}
				}
				return true
			})
		}
		for _, d := range f.ast.Decls {
			walk(d, "")
		}
	}
	return refs
}
