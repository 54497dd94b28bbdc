package main

// `identctl admin <view> [args]` and `identctl revoke <host-ip> [key]` are
// HTTP clients of a serving identctl's telemetry listener, where the
// operator views live (telemetry.Views). The words name the view —
// `identctl admin ring drop b` is POST /ring/drop?id=b, `identctl revoke
// 10.0.0.7` is POST /revoke?host=10.0.0.7 — and the JSON answer is printed
// as is.

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"identxx/internal/telemetry"
)

// adminMain sends one operator request: the words after the flags, behind
// "revoke" for `identctl revoke`.
func adminMain(sub string, args []string) {
	fs := flag.NewFlagSet("identctl "+sub, flag.ExitOnError)
	addr := fs.String("admin", "127.0.0.1:7833", "telemetry address of the serving identctl")
	fs.Parse(args)
	words := fs.Args()
	if sub == "revoke" {
		words = append([]string{sub}, words...)
	}
	body, err := operatorCall(*addr, words)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(body)
}

// operatorCall sends words as an operator request (telemetry.Request) and
// returns the body of a 200 answer.
func operatorCall(addr string, words []string) ([]byte, error) {
	req, err := telemetry.Request(addr, words)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("controller refused: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, err
}
