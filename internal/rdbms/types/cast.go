package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Cast converts d to type t following Postgres-style rules: numerics
// inter-convert, anything casts to text via its display form, and text
// casts to other types by parsing — raising an error on malformed input
// (the behaviour that breaks Postgres-JSON on multi-typed keys, §6.4).
// NULL casts to NULL of the target type.
func Cast(d Datum, t Type) (Datum, error) {
	if d.IsNull() {
		return NewNull(t), nil
	}
	if d.Typ == t {
		return d, nil
	}
	switch t {
	case Bool:
		switch d.Typ {
		case Int:
			return NewBool(d.I != 0), nil
		case Text:
			switch strings.ToLower(strings.TrimSpace(d.Text())) {
			case "t", "true", "yes", "on", "1":
				return NewBool(true), nil
			case "f", "false", "no", "off", "0":
				return NewBool(false), nil
			}
			return Datum{}, fmt.Errorf("invalid input syntax for type boolean: %q", d.Text())
		default:
			// Float/Bytes/Array to boolean: no conversion; shared error below.
		}
	case Int:
		switch d.Typ {
		case Bool:
			if d.Bool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		case Float:
			return NewInt(int64(d.Float())), nil
		case Text:
			i, err := strconv.ParseInt(strings.TrimSpace(d.Text()), 10, 64)
			if err != nil {
				return Datum{}, fmt.Errorf("invalid input syntax for type integer: %q", d.Text())
			}
			return NewInt(i), nil
		default:
			// Bytes/Array to integer: no conversion; shared error below.
		}
	case Float:
		switch d.Typ {
		case Int:
			return NewFloat(float64(d.I)), nil
		case Text:
			f, err := strconv.ParseFloat(strings.TrimSpace(d.Text()), 64)
			if err != nil {
				return Datum{}, fmt.Errorf("invalid input syntax for type real: %q", d.Text())
			}
			return NewFloat(f), nil
		default:
			// Bool/Bytes/Array to real: no conversion; shared error below.
		}
	case Text:
		return NewText(d.String()), nil
	case Bytes:
		if d.Typ == Text {
			return NewBytes([]byte(d.Text())), nil
		}
	case Array:
		// Any scalar casts to a one-element array (convenience, not SQL std).
		return NewArray(d), nil
	default:
		// Unknown is not a castable target; shared error below.
	}
	return Datum{}, fmt.Errorf("cannot cast type %v to %v", d.Typ, t)
}

// CommonNumeric returns the wider of two numeric types (int+float = float);
// it is used for arithmetic result typing.
func CommonNumeric(a, b Type) Type {
	if a == Float || b == Float {
		return Float
	}
	return Int
}
