package feedwire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestConnectorCloseUnblocksRead: Read decodes off the socket on the
// caller's goroutine, so a Read waiting on an idle stream is released only
// by Close dropping the connection under it. It must return promptly, with
// an error the pipeline treats as transient.
func TestConnectorCloseUnblocksRead(t *testing.T) {
	s, err := NewServer(Config{WindowSec: 900})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	defer s.Close()
	c := NewConnector(ConnectorConfig{Addr: lis.Addr().String()})
	us, err := c.OpenUpdates(ResumeAll)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := c.OpenTraces(ResumeAll)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := us.Read()
		errs <- err
	}()
	go func() {
		_, err := ts.Read()
		errs <- err
	}()
	select {
	case err := <-errs:
		t.Fatalf("Read on an idle stream returned before Close: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var tmp interface{ Temporary() bool }
			if !errors.As(err, &tmp) || !tmp.Temporary() {
				t.Fatalf("Read after Close returned %v, want a transient error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Read still blocked 2s after Close")
		}
	}
	if _, err := c.OpenUpdates(ResumeAll); err == nil {
		t.Fatal("OpenUpdates succeeded on a closed connector")
	}
}
