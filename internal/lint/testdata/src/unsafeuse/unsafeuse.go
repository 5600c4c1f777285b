// Package unsafeuse seeds positive and negative cases for the
// sinew/unsafe-confined check.
package unsafeuse

import (
	"unsafe" // want `package unsafeuse imports "unsafe"`

	"example.com/lintcheck/types"
)

// Peek reinterprets memory outside the value package (the import above is
// the finding; the use needs none of its own).
func Peek(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Forge pairs a tag with a payload by hand: flagged, keyed or positional
// inside a slice literal alike.
func Forge() []types.Datum {
	d := types.Datum{Typ: types.Text, I: 5} // want `types\.Datum literal sets fields outside the types package`
	return []types.Datum{
		d,
		{Typ: types.Int, I: 1}, // want `types\.Datum literal sets fields outside the types package`
	}
}

// Build goes through the constructors, and the empty literal is the
// untyped NULL: no finding.
func Build() []types.Datum {
	return []types.Datum{types.NewInt(1), types.NewText("x"), types.Datum{}, {}}
}

// Datum is a local type that merely shares the name: literals of it are
// none of the check's business.
type Datum struct{ V int }

// Local builds one: no finding.
func Local() Datum { return Datum{V: 1} }
