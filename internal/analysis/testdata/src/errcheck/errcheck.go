// Package errcheck seeds dropped error returns from MPI-shaped
// operations on a local stand-in for core.Rank.
package errcheck

type Proc struct{}

type Status struct{ Len int }

type Rank struct{}

func (r *Rank) Send(p *Proc, dst, tag int) error           { return nil }
func (r *Rank) Recv(p *Proc, src, tag int) (Status, error) { return Status{}, nil }
func (r *Rank) Barrier(p *Proc) error                      { return nil }
func (r *Rank) Render()                                    {}

func Drops(r *Rank, p *Proc) {
	r.Send(p, 1, 0) // want "error result of Send dropped"
	r.Recv(p, 1, 0) // want "error result of Recv dropped"
	r.Barrier(p)    // want "error result of Barrier dropped"

	st, _ := r.Recv(p, 1, 0) // want "error result of Recv assigned to _"
	_ = st.Len

	defer r.Barrier(p) // want "error result of deferred Barrier dropped"

	r.Render() // returns nothing: not flagged
}

// DropsBlank keeps the status and blanks the error.
func DropsBlank(r *Rank, p *Proc) {
	st, _ := r.Recv(p, 1, 0) // want "error result of Recv assigned to _"
	_ = st.Len
}

// localHelper is a plain function whose name is not an MPI operation;
// calling it through its identifier is never flagged.
func localHelper(p *Proc) error { return nil }

// NotSelector: only method and package-qualified calls are classified
// by name. Plain function calls and calls through function-valued
// locals stay out of scope.
func NotSelector(r *Rank, p *Proc) {
	_ = localHelper(p)
	f := r.Barrier
	f(p)
}

// Checked propagates errors properly: not flagged.
func Checked(r *Rank, p *Proc) error {
	if err := r.Send(p, 1, 0); err != nil {
		return err
	}
	if _, err := r.Recv(p, 0, 0); err != nil {
		return err
	}
	//simlint:ignore errcheck teardown path where a failed barrier is acceptable
	r.Barrier(p)
	return nil
}
