package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestQueryPlaneSeam keeps the query plane to one face per boundary: the
// controller asks its transport through QueryPlane, and the engine its lower
// through query.Lower, so no program code in internal/core or internal/query
// asserts a value to an interface type — save New's one fallback to plain,
// for a transport that is not a QueryPlane. An optional face probed for is
// a second way in that every transport has to be read for. Errors are
// exempt: find walks an error chain for the behaviour an error carries,
// which is errors.As, not a transport's face. `make check-seam` runs this.
func TestQueryPlaneSeam(t *testing.T) {
	dirs := map[string]string{".": "identxx/internal/core", "../query": "identxx/internal/query"}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", ".", "../query").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	errType := types.Universe.Lookup("error").Type()

	fallbacks := 0
	for dir, path := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, p := range pkgs {
			for _, f := range p.Files {
				files = append(files, f)
			}
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, _ := d.(*ast.FuncDecl)
				check := func(x, typ ast.Expr) {
					if typ == nil || !types.IsInterface(info.Types[typ].Type) || types.Identical(info.Types[x].Type, errType) {
						return
					}
					if path == dirs["."] && fn != nil && fn.Recv == nil && fn.Name.Name == "New" && types.ExprString(typ) == "QueryPlane" && fallbacks == 0 {
						fallbacks++
						return
					}
					t.Errorf("%s: %s asserted to the interface %s: the query plane has one face", fset.Position(x.Pos()), types.ExprString(x), types.ExprString(typ))
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeAssertExpr:
						check(n.X, n.Type)
					case *ast.TypeSwitchStmt:
						var x ast.Expr
						switch s := n.Assign.(type) {
						case *ast.AssignStmt:
							x = s.Rhs[0].(*ast.TypeAssertExpr).X
						case *ast.ExprStmt:
							x = s.X.(*ast.TypeAssertExpr).X
						}
						for _, c := range n.Body.List {
							for _, typ := range c.(*ast.CaseClause).List {
								check(x, typ)
							}
						}
					}
					return true
				})
			}
		}
	}
}
