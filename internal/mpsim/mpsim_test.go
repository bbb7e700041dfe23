package mpsim

import (
	"fmt"
	"sync"
	"testing"

	"github.com/pastix-go/pastix/internal/trace"
)

func TestPingPong(t *testing.T) {
	c := NewComm(2)
	err := c.Run(func(p int) error {
		if p == 0 {
			c.Send(Message{Kind: 1, Src: 0, Dst: 1, Tag: 7, Data: []float64{1, 2, 3}})
			m, err := c.Recv(0)
			if err != nil {
				return err
			}
			if m.Tag != 8 || m.Data[0] != 6 {
				return fmt.Errorf("bad reply %v", m)
			}
			return nil
		}
		m, err := c.Recv(1)
		if err != nil {
			return err
		}
		s := 0.0
		for _, v := range m.Data {
			s += v
		}
		c.Send(Message{Kind: 2, Src: 1, Dst: 0, Tag: 8, Data: []float64{s}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes, _ := c.Stats()
	if msgs != 2 || bytes != 4*8 {
		t.Fatalf("stats msgs=%d bytes=%d", msgs, bytes)
	}
}

func TestManyToOneOrderAndCount(t *testing.T) {
	const P = 8
	const perSender = 50
	c := NewComm(P)
	err := c.Run(func(p int) error {
		if p == 0 {
			seen := make(map[int]int)
			for i := 0; i < (P-1)*perSender; i++ {
				m, err := c.Recv(0)
				if err != nil {
					return err
				}
				// FIFO per sender: tags from one src must ascend.
				if m.Tag < seen[m.Src] {
					return fmt.Errorf("out of order from %d: %d after %d", m.Src, m.Tag, seen[m.Src])
				}
				seen[m.Src] = m.Tag
			}
			return nil
		}
		for i := 0; i < perSender; i++ {
			c.Send(Message{Src: p, Dst: 0, Tag: i})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	c := NewComm(2)
	if _, ok := c.TryRecv(0); ok {
		t.Fatal("empty mailbox returned a message")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Send(Message{Src: 1, Dst: 0, Tag: 5})
	}()
	wg.Wait()
	m, ok := c.TryRecv(0)
	if !ok || m.Tag != 5 {
		t.Fatalf("TryRecv got %v %v", m, ok)
	}
}

func TestSelfSendPanics(t *testing.T) {
	c := NewComm(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Send(Message{Src: 1, Dst: 1})
}

func TestRunPropagatesError(t *testing.T) {
	c := NewComm(3)
	err := c.Run(func(p int) error {
		if p == 2 {
			return fmt.Errorf("boom")
		}
		// Others block in Recv and must be released by Close.
		_, err := c.Recv(p)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	c := NewComm(1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(0)
		done <- err
	}()
	c.Close()
	if err := <-done; err == nil {
		t.Fatal("expected closed-mailbox error")
	}
}

func TestPAccessor(t *testing.T) {
	if NewComm(3).P() != 3 {
		t.Fatal("P accessor")
	}
}

func TestSendAfterCloseIsDropped(t *testing.T) {
	c := NewComm(2)
	c.Close()
	c.Send(Message{Src: 0, Dst: 1, Tag: 1}) // must not panic
	if _, ok := c.TryRecv(1); ok {
		t.Fatal("dropped message delivered")
	}
}

// TryRecv returns a pending message without blocking; ok is false when the
// mailbox is empty.
func (c *Comm) TryRecv(p int) (Message, bool) {
	b := &c.boxes[p]
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return Message{}, false
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	c.inFlight.Add(-1)
	if c.rec != nil {
		c.rec.Comm(p, trace.KindRecv, m.Kind, m.Tag, int64(len(m.Data))*8)
	}
	return m, true
}
