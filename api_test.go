package cata_test

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiPath holds the pinned public API of package cata.
var apiPath = filepath.Join("testdata", "api.txt")

// publicAPI type-checks package cata from source and renders every
// exported name: constants with their values, variables, function
// signatures, and each type with its exported fields (tags included,
// since they are the wire format) and its full method set. Types that
// package cata exports through an alias are printed under the alias
// name, so moving a type's definition behind an alias leaves the text
// unchanged; only a change callers can see moves it.
func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := importer.ForCompiler(fset, "source", nil).Import("cata")
	if err != nil {
		t.Fatalf("type-checking package cata: %v", err)
	}
	scope := pkg.Scope()

	// Every aliased type prints as its cata name. Longer spellings go
	// first so an instantiated generic is replaced before its origin.
	qual := types.RelativeTo(pkg)
	var aliases [][2]string
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if a, ok := obj.Type().(*types.Alias); ok && obj.Exported() {
			aliases = append(aliases, [2]string{types.TypeString(a.Rhs(), qual), name})
		}
	}
	sort.Slice(aliases, func(i, j int) bool { return len(aliases[i][0]) > len(aliases[j][0]) })
	str := func(typ types.Type) string {
		s := types.TypeString(typ, qual)
		for _, a := range aliases {
			s = strings.ReplaceAll(s, a[0], a[1])
		}
		return s
	}

	var b strings.Builder
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s = %s\n", name, str(o.Type()), o.Val().ExactString())
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, str(o.Type()))
		case *types.Func:
			fmt.Fprintf(&b, "func %s%s\n", name, strings.TrimPrefix(str(o.Type()), "func"))
		case *types.TypeName:
			typ := types.Unalias(o.Type())
			under := typ.Underlying()
			st, isStruct := under.(*types.Struct)
			if !isStruct {
				fmt.Fprintf(&b, "type %s %s\n", name, str(under))
			} else {
				fmt.Fprintf(&b, "type %s struct\n", name)
				for i := range st.NumFields() {
					f := st.Field(i)
					if f.Exported() {
						fmt.Fprintf(&b, "\tfield %s %s `%s`\n", f.Name(), str(f.Type()), st.Tag(i))
					}
				}
			}
			if _, isIface := under.(*types.Interface); isIface {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(typ))
			for i := range ms.Len() {
				m := ms.At(i).Obj().(*types.Func)
				if !m.Exported() {
					continue
				}
				sig := m.Type().(*types.Signature)
				recv := name
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
					recv = "*" + name
				}
				fmt.Fprintf(&b, "\tmethod (%s) %s%s\n", recv, m.Name(), strings.TrimPrefix(str(sig), "func"))
			}
		}
	}
	return b.String()
}

// TestPublicAPIPinned: the exported surface of package cata — every
// name, field, tag and method — matches testdata/api.txt, so a refactor
// behind the public types cannot silently drop or change something
// callers use. The expected text is printed on mismatch; an intended
// API change is a copy-paste into the file away from passing.
func TestPublicAPIPinned(t *testing.T) {
	got := publicAPI(t)
	want, err := os.ReadFile(apiPath)
	if err != nil {
		t.Fatalf("reading %s: %v\nExpected contents:\n\n%s", apiPath, err, got)
	}
	if string(want) != got {
		t.Errorf("the public API of package cata has drifted from %s.\nExpected contents:\n\n%s", apiPath, got)
	}
}
