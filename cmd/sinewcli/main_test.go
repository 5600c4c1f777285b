package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/sinewdata/sinew/internal/core"
)

func cliDB(t *testing.T) (*core.DB, *core.Materializer) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.EnableTextIndex = true
	db := core.Open(cfg)
	return db, core.NewMaterializer(db)
}

func TestCommandLifecycle(t *testing.T) {
	db, mat := cliDB(t)

	if err := command(db, mat, `\create events`); err != nil {
		t.Fatal(err)
	}
	// Load from a temp file.
	path := filepath.Join(t.TempDir(), "data.json")
	if err := os.WriteFile(path, []byte(
		`{"kind":"a","n":1}
{"kind":"b","n":2}
{"kind":"a","n":3}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := command(db, mat, `\load events `+path); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM events`)
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("count = %v err = %v", res.Rows, err)
	}

	for _, cmd := range []string{
		`\analyze events`,
		`\materialize events`,
		`\catalog events`,
		`\synccat`,
		`\rewrite SELECT kind FROM events`,
		`\explain SELECT kind FROM events WHERE n > 1`,
		`\stats`,
	} {
		if err := command(db, mat, cmd); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
}

func TestCommandErrors(t *testing.T) {
	db, mat := cliDB(t)
	for _, cmd := range []string{
		`\create`,                 // missing argument
		`\load onlyone`,           // wrong arity
		`\load ghost /no/file`,    // unknown collection comes after open; file missing
		`\analyze ghost`,          // unknown collection
		`\materialize ghost`,      // unknown collection
		`\catalog ghost`,          // unknown collection
		`\rewrite SELECT FROM x,`, // parse error
		`\nonsense`,               // unknown command
	} {
		if err := command(db, mat, cmd); err == nil {
			t.Errorf("%q should error", cmd)
		}
	}
}
