// Package sample exercises every plavet rule: the `want` comments below
// are matched against the checker's findings by plavet_test.go. The
// directory lives under testdata so the go tool never builds it.
package sample

import (
	"context"

	"plabi/internal/audit"
	"plabi/internal/enforce"
)

func bad(l *audit.Log) {
	l.AppendChecked(context.Background(), audit.Event{Kind: "render"})                          // want PV002
	go l.AppendChecked(context.Background(), audit.Event{Kind: "render"})                       // want PV002
	defer l.DecisionTracedChecked(context.Background(), "ana", "rep", "t1", enforce.Decision{}) // want PV002
}

func good(l *audit.Log) error {
	_, _ = l.AppendChecked(context.Background(), audit.Event{Kind: "render"})
	if _, err := l.AppendChecked(context.Background(), audit.Event{Kind: "render"}); err != nil {
		return err
	}
	seq, err := l.DecisionTracedChecked(context.Background(), "ana", "rep", "t1", enforce.Decision{})
	_ = seq
	return err
}

// notAudit proves matching is type-based: an unrelated AppendChecked
// method on another type must never trip PV002.
type notAudit struct{}

func (notAudit) AppendChecked(s string) (int, error) { return len(s), nil }

func alsoGood() {
	notAudit{}.AppendChecked("x")
}
