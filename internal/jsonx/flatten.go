package jsonx

// Flattened is one attribute produced by flattening a document: a
// dot-delimited path and the value found there.
type Flattened struct {
	Path string
	Val  Value
}

// Flatten expands a document into Sinew's logical attribute set (§3.1.1 of
// the paper): every top-level key becomes an attribute, and the subkeys of a
// nested object are additionally exposed as dot-delimited attributes, with
// the parent object itself still referenceable by its original key. Arrays
// are kept whole (array handling strategies are layered above, §4.2).
//
// The returned slice is in document order: each parent object immediately
// precedes its expanded children.
func Flatten(d *Doc) []Flattened {
	var out []Flattened
	flattenInto(&out, "", d)
	return out
}

func flattenInto(out *[]Flattened, prefix string, d *Doc) {
	for _, m := range d.Members() {
		path := m.Key
		if prefix != "" {
			path = prefix + "." + m.Key
		}
		*out = append(*out, Flattened{Path: path, Val: m.Val})
		if m.Val.Kind == Object {
			flattenInto(out, path, m.Val.Obj)
		}
	}
}

// PathGet resolves a dot-delimited path ("user.name.first") against a
// document, descending through nested objects and — for numeric segments —
// array positions ("tags.0", the §4.2 positional addressing).
//
// Keys that themselves contain dots shadow paths: a literal member named
// "user.name" is checked before descending into "user".
func PathGet(d *Doc, path string) (Value, bool) {
	if v, ok := d.Get(path); ok {
		return v, true
	}
	for i := 0; i < len(path); i++ {
		if path[i] != '.' {
			continue
		}
		head, rest := path[:i], path[i+1:]
		if v, ok := d.Get(head); ok {
			if sub, ok := ValuePathGet(v, rest); ok {
				return sub, true
			}
		}
	}
	return Value{}, false
}

// ValuePathGet resolves a dotted path against any value: objects descend by
// key (with dotted-member shadowing), arrays by numeric index.
func ValuePathGet(v Value, path string) (Value, bool) {
	switch v.Kind {
	case Object:
		return PathGet(v.Obj, path)
	case Array:
		head, rest := path, ""
		for i := 0; i < len(path); i++ {
			if path[i] == '.' {
				head, rest = path[:i], path[i+1:]
				break
			}
		}
		idx, ok := ParseIndex(head)
		if !ok || idx >= len(v.A) {
			return Value{}, false
		}
		if rest == "" {
			return v.A[idx], true
		}
		return ValuePathGet(v.A[idx], rest)
	default:
		return Value{}, false
	}
}

// ParseIndex parses a non-negative decimal array index (a positional path
// segment, §4.2).
func ParseIndex(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, false
		}
	}
	return n, true
}
