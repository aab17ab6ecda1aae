package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// checkError marks a wrong result. It is never retried: the operation
// fails at once and the run reports correct=false.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// retryPolicy bounds how a client retries an aborted operation.
type retryPolicy struct {
	maxAttempts int
	base, cap   time.Duration // backoff before attempt k is base*2^(k-2), capped, with jitter
}

var defaultRetry = retryPolicy{maxAttempts: 20, base: 500 * time.Microsecond, cap: 20 * time.Millisecond}

// run calls attempt until it succeeds, fails a check, or the policy gives
// up, sleeping a jittered exponential backoff between attempts. It returns
// the number of attempts made and the final error (nil on success).
func (p retryPolicy) run(rng *rand.Rand, sleep func(time.Duration), attempt func() error) (int, error) {
	var err error
	for k := 1; k <= p.maxAttempts; k++ {
		if k > 1 {
			sleep(p.backoff(rng, k))
		}
		if err = attempt(); err == nil || isCheck(err) {
			return k, err
		}
	}
	return p.maxAttempts, fmt.Errorf("gave up after %d attempts: %w", p.maxAttempts, err)
}

func (p retryPolicy) backoff(rng *rand.Rand, k int) time.Duration {
	d := p.base << (k - 2)
	if d > p.cap || d <= 0 {
		d = p.cap
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}
