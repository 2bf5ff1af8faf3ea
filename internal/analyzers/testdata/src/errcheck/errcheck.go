// Fixture for the errcheck analyzer: dropped VM errors in every
// flagged form, plus the allowed patterns that must stay quiet.
package errcheck

type VM struct{}

func (vm *VM) Unpin(id int) error               { return nil }
func (vm *VM) Ensure(id int) ([]float32, error) { return nil, nil }
func (vm *VM) WaitIdle() error                  { return nil }
func (vm *VM) Used(id int) int64                { return 0 }
func (vm *VM) Release(id int) error             { return nil }

type other struct{}

func (o *other) Unpin(id int) error { return nil }

func drops(vm *VM) {
	vm.Unpin(1)            // want "VM.Unpin returns an error that is dropped"
	vm.Release(2)          // want "VM.Release returns an error that is dropped"
	_ = vm.Unpin(3)        // want "VM.Unpin error assigned to blank"
	buf, _ := vm.Ensure(4) // want "VM.Ensure error assigned to blank"
	_ = buf
	go vm.WaitIdle()    // want "VM.WaitIdle launched as a goroutine drops its error"
	defer vm.WaitIdle() // want "deferred VM.WaitIdle drops its error"
}

func fine(vm *VM, o *other) error {
	if err := vm.Unpin(1); err != nil { // handled: quiet
		return err
	}
	buf, err := vm.Ensure(2) // both results bound: quiet
	if err != nil {
		return err
	}
	_ = buf
	vm.Used(3)            // no error result: quiet
	o.Unpin(4)            // not a guarded type: quiet
	err2 := vm.Release(5) // bound to a named variable: quiet
	//lint:allow errcheck best-effort cleanup exercised by the directive test
	vm.Unpin(6)
	return err2
}
