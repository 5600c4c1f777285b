package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file renders a serialized record straight to JSON text, skipping
// the jsonx.Doc intermediate that Deserialize builds. Reconstructing the
// reservoir (sinew_tojson, every SELECT *) is the per-row cost of the
// hybrid storage model, and the document round trip — ordered map, boxed
// values, final marshal — allocates an order of magnitude more than the
// text itself. AppendJSON walks the record header once and appends each
// value directly.
//
// Output contract: byte-identical to
// jsonx.ObjectValue(Deserialize(data, dict)).String() whenever AppendJSON
// succeeds. The one semantic wrinkle is duplicate keys: two attribute IDs
// can share a key with different types, and Doc.Set keeps the first
// position with the last value. A streaming writer cannot reproduce that
// without buffering, so duplicates (and any malformed record) return an
// error and the caller falls back to the document path, which also owns
// the canonical error message.

// errJSONFallback tags records AppendJSON declines; callers re-run the
// Deserialize path for the authoritative result or error.
var errJSONFallback = fmt.Errorf("serial: record needs document-path JSON rendering")

// AppendJSON appends the record's JSON object text to dst and returns the
// extended slice. On any error dst's contents are unspecified and the
// caller must fall back to Deserialize.
func AppendJSON(dst, data []byte, dict Dict) ([]byte, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	dst = append(dst, '{')
	var keys [24]string
	seen := keys[:0]
	for i := 0; i < h.n; i++ {
		attr, ok := dict.Lookup(h.aid(i))
		if !ok {
			return nil, fmt.Errorf("serial: attribute %d not in dictionary", h.aid(i))
		}
		for _, k := range seen {
			if k == attr.Key {
				return nil, errJSONFallback
			}
		}
		seen = append(seen, attr.Key)
		vb, err := h.valueBytes(i)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, attr.Key)
		dst = append(dst, ':')
		dst, err = appendJSONValue(dst, vb, attr.Type, dict)
		if err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSONValue renders one encoded value of a known attribute type.
func appendJSONValue(dst, b []byte, t AttrType, dict Dict) ([]byte, error) {
	switch t {
	case TypeBool:
		if len(b) != 1 {
			return nil, fmt.Errorf("serial: bad bool length %d", len(b))
		}
		if b[0] != 0 {
			return append(dst, "true"...), nil
		}
		return append(dst, "false"...), nil
	case TypeInt:
		if len(b) != 8 {
			return nil, fmt.Errorf("serial: bad int length %d", len(b))
		}
		return strconv.AppendInt(dst, int64(binary.LittleEndian.Uint64(b)), 10), nil
	case TypeFloat:
		if len(b) != 8 {
			return nil, fmt.Errorf("serial: bad float length %d", len(b))
		}
		return appendJSONFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case TypeString:
		return appendJSONString(dst, b), nil
	case TypeObject:
		return AppendJSON(dst, b, dict)
	case TypeArray:
		it, err := newArrayIter(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, '[')
		for i := 0; i < it.n; i++ {
			tag, eb, err := it.next()
			if err != nil {
				return nil, err
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			if tag == nullTag {
				dst = append(dst, "null"...)
			} else if dst, err = appendJSONValue(dst, eb, AttrType(tag), dict); err != nil {
				return nil, err
			}
		}
		return append(dst, ']'), nil
	default:
		return nil, fmt.Errorf("serial: unknown attribute type %d", t)
	}
}

// appendJSONFloat matches jsonx's float rendering: shortest 'g' form with
// a ".0" suffix whenever the text would otherwise read back as an integer.
func appendJSONFloat(dst []byte, f float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	s := string(dst[start:])
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
		dst = append(dst, ".0"...)
	}
	return dst
}

const jsonHexDigits = "0123456789abcdef"

// appendJSONString writes s as a quoted, escaped JSON string —
// byte-for-byte jsonx's encodeString (string keys and raw byte values
// share the one loop, so string payloads are never copied out first).
func appendJSONString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		default:
			dst = append(dst, '\\', 'u', '0', '0', jsonHexDigits[c>>4], jsonHexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
