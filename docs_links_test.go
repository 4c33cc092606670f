package bips_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) markdown links. Image links and inline
// code are close enough in shape that targets are filtered afterwards.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docFiles lists the project documentation: README.md and docs/*.md.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

// TestDocsLinks is the link checker CI runs over README.md and docs/:
// every relative link in the project documentation must point at a file
// that exists in the repository. External links (http/https) and pure
// anchors are not checked.
func TestDocsLinks(t *testing.T) {
	files := docFiles(t)
	if len(files) < 4 {
		t.Fatalf("expected README + at least 3 docs, found %v", files)
	}

	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip a section anchor from relative links.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%s)", file, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("link checker found no relative links at all — regexp broken?")
	}
}

// TestDocsCrossReferences: the three core docs must cross-link each
// other and README must reach all of them, so a reader can navigate the
// doc set from any entry point.
func TestDocsCrossReferences(t *testing.T) {
	wantLinks := map[string][]string{
		"README.md":            {"docs/PROTOCOL.md", "docs/OPERATIONS.md", "docs/ARCHITECTURE.md"},
		"docs/PROTOCOL.md":     {"ARCHITECTURE.md", "OPERATIONS.md"},
		"docs/OPERATIONS.md":   {"PROTOCOL.md", "ARCHITECTURE.md"},
		"docs/ARCHITECTURE.md": {"PROTOCOL.md", "OPERATIONS.md"},
	}
	for file, targets := range wantLinks {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			if !strings.Contains(string(raw), "("+target) {
				t.Errorf("%s does not link to %s", file, target)
			}
		}
	}
}

var (
	// codeSpan matches one inline code span; fenced blocks are removed
	// before it runs.
	codeSpan = regexp.MustCompile("`[^`]+`")
	// qualifiedName matches pkg.Name or pkg.Name.Member with an exported
	// Name, where pkg does not itself end a selector or a path
	// (s.db.All, internal/locdb.go).
	qualifiedName = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocsNameLiveIdentifiers: the documentation names only Go
// identifiers that exist. Every `pkg.Name` or `pkg.Name.Member` in a
// code span of README.md or docs/*.md, where pkg is bips or a package
// under internal/, must be declared in that package's non-test files:
// Name as a package-level type, func, const or var, or as a method;
// Member as a method or field of type Name, promoted ones included.
// Only exported Names are checked — a lower-case word after a package
// name is a stats key or a message type (`locdb.updates`,
// `ingest.hello`) — and fenced code blocks are skipped.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	dirs := map[string]string{"bips": "."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join("internal", e.Name())
		}
	}
	decls := make(map[string]*declSet)
	checked := 0
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if !fenced {
				prose.WriteString(line + "\n")
			}
		}
		for _, span := range codeSpan.FindAllString(prose.String(), -1) {
			for _, m := range qualifiedName.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				dir, ok := dirs[pkg]
				if !ok {
					continue
				}
				if decls[pkg] == nil {
					decls[pkg] = parseDecls(t, dir)
				}
				checked++
				if !decls[pkg].declares(name, member) {
					ref := pkg + "." + name
					if member != "" {
						ref += "." + member
					}
					t.Errorf("%s names %s, which %s does not declare", file, ref, dir)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("found no package-qualified identifiers in the docs — regexp broken?")
	}
}

// declSet is what one package's non-test files declare.
type declSet struct {
	top     map[string]bool            // package-level types, funcs, consts, vars
	methods map[string]bool            // method names, on any type
	members map[string]map[string]bool // type → its methods and fields
	embeds  map[string][]string        // type → the same-package types it embeds
}

// declares reports whether pkg.name (member empty) or pkg.name.member is
// declared.
func (d *declSet) declares(name, member string) bool {
	if member == "" {
		return d.top[name] || d.methods[name]
	}
	return d.hasMember(name, member, 0)
}

// hasMember looks member up on typ and, for promoted members, on the
// types typ embeds.
func (d *declSet) hasMember(typ, member string, depth int) bool {
	if d.members[typ][member] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if depth < 8 && d.hasMember(e, member, depth+1) {
			return true
		}
	}
	return false
}

func (d *declSet) addMember(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = make(map[string]bool)
	}
	d.members[typ][name] = true
}

// addFields records a struct's fields or an interface's methods as
// members of typ. An embedded same-package type is a member under its
// own name, and its members are promoted.
func (d *declSet) addFields(typ string, x ast.Expr) {
	var fields *ast.FieldList
	switch x := x.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			d.addMember(typ, n.Name)
		}
		if len(f.Names) == 0 {
			if e := typeName(f.Type); e != "" {
				d.addMember(typ, e)
				d.embeds[typ] = append(d.embeds[typ], e)
			}
		}
	}
}

// typeName is the name of a receiver or embedded type declared in the
// same package, or "" for a type from another package.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// parseDecls collects the declarations of the package in dir, test
// files excluded.
func parseDecls(t *testing.T, dir string) *declSet {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	d := &declSet{
		top:     make(map[string]bool),
		methods: make(map[string]bool),
		members: make(map[string]map[string]bool),
		embeds:  make(map[string][]string),
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				d.methods[decl.Name.Name] = true
				d.addMember(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						d.addFields(spec.Name.Name, spec.Type)
					}
				}
			}
		}
	}
	return d
}
