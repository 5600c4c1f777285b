// Command sinewd serves a Sinew database over the HTTP line protocol
// (internal/service): pooled sessions, one SQL statement per /query
// request, newline-delimited JSON documents per /load request, and a
// /metrics endpoint exposing the snapshot/session counters. Readers never block behind writers — each statement runs
// against an epoch-pinned heap snapshot (DESIGN.md §10).
//
// Quickstart:
//
//	sinewd -addr :8481 &
//	curl -X POST localhost:8481/session              # -> {"session":"s1"}
//	curl -X POST 'localhost:8481/query?session=s1' \
//	     -d 'CREATE TABLE t (a INT, b TEXT)'
//	curl -X POST 'localhost:8481/query?session=s1' \
//	     -d "INSERT INTO t VALUES (1, 'x')"
//	curl -X POST 'localhost:8481/query?session=s1' -d 'SELECT * FROM t'
//	curl -X POST 'localhost:8481/load?collection=docs' \
//	     --data-binary $'{"a":1}\n{"a":2,"b":{"c":true}}\n'
//	curl -X POST localhost:8481/query -d 'SELECT a, "b.c" FROM docs'
//	curl localhost:8481/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/service"
)

func main() {
	addr := flag.String("addr", "localhost:8481", "listen address (host:port; port 0 picks a free port)")
	textIndex := flag.Bool("textindex", false, "maintain the inverted text index at load time")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.EnableTextIndex = *textIndex
	db := core.Open(cfg)
	srv := service.New(db)

	// Serve in the foreground; a signal triggers the graceful drain.
	errc := make(chan error, 1)
	go func() {
		errc <- srv.Serve(*addr, func(a net.Addr) {
			fmt.Printf("sinewd listening on %s\n", a)
		})
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "sinewd:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Printf("sinewd: %s — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sinewd: shutdown:", err)
			os.Exit(1)
		}
	}
}
