// Package types is the corpus stand-in for the engine's value package: the
// one place sinew/unsafe-confined lets "unsafe" and Datum literals with
// fields appear, so nothing in this file is a finding.
package types

import "unsafe"

// Type tags a Datum's payload.
type Type uint8

// The value tags of this mini engine; switches elsewhere in the corpus do
// not use them.
const (
	Unknown Type = iota
	Int
	Text
)

// Datum mirrors the engine's compact tagged union.
type Datum struct {
	p    unsafe.Pointer
	I    int64
	Typ  Type
	Null bool
}

// NewInt pairs the tag with its payload: allowed here.
func NewInt(i int64) Datum { return Datum{Typ: Int, I: i} }

// NewText stores the string's data pointer and length: allowed here.
func NewText(s string) Datum {
	return Datum{Typ: Text, p: unsafe.Pointer(unsafe.StringData(s)), I: int64(len(s))}
}

// Text reads the pair back.
func (d Datum) Text() string {
	if d.Typ != Text {
		return ""
	}
	return unsafe.String((*byte)(d.p), int(d.I))
}
