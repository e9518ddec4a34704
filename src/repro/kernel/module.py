"""Simulated nanoBench kernel module (Section IV-C).

"While the module is loaded, it provides a set of virtual files that are
used to configure and run microbenchmarks.  For example, setting the
loop count, or the code of [the] microbenchmark is done by writing the
corresponding values to specific files under ``/sys/nb/``.  Reading the
file ``/proc/nanoBench`` generates the code for running the benchmark,
runs the benchmark ... and returns the result."

:class:`KernelModule` reproduces that interface over the simulated
machine: string/bytes writes to virtual paths configure a kernel-space
:class:`~repro.core.nanobench.NanoBench`, and reading the proc file
triggers the run and returns the formatted output.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

from ..core.nanobench import NanoBench
from ..core.options import NanoBenchOptions
from ..core.output import format_results
from ..core.retry import MeasurementWarning, retry_transient
from ..errors import AllocationError, NanoBenchError
from ..faults.plan import active_plan
from ..perfctr.config import parse_config
from ..perfctr.events import event_catalog
from ..uarch.core import SimulatedCore
from ..x86.decoder import decode_program

PROC_PATH = "/proc/nanoBench"
SYS_PREFIX = "/sys/nb/"

#: Virtual files accepting integer writes, mapped to option fields.
_INT_FILES = {
    "unroll_count": "unroll_count",
    "loop_count": "loop_count",
    "n_measurements": "n_measurements",
    "warm_up_count": "warm_up_count",
    "initial_warm_up_count": "initial_warm_up_count",
    "basic_mode": "basic_mode",
    "no_mem": "no_mem",
    "fixed_counters": "fixed_counters",
    "aperf_mperf": "aperf_mperf",
    "verbose": "verbose",
}
_STR_FILES = {"agg": "aggregate", "serializer": "serializer"}
_CODE_FILES = ("code", "code_init", "asm", "asm_init", "config",
               "r14_size", "reset")


class KernelModule:
    """The loaded nanoBench kernel module of one simulated machine."""

    def __init__(self, core_or_uarch: Union[SimulatedCore, str] = "Skylake",
                 seed: int = 0) -> None:
        core = (
            core_or_uarch if isinstance(core_or_uarch, SimulatedCore)
            else SimulatedCore(core_or_uarch, seed=seed)
        )
        self._spec = core.spec
        self._seed = seed
        self.nanobench = NanoBench(core, kernel_mode=True)
        self._asm = ""
        self._asm_init = ""
        self._code: Optional[bytes] = None
        self._code_init: Optional[bytes] = None
        self._config_text: Optional[str] = None
        self.loaded = True
        #: Simulated machine reboots performed to heal allocation
        #: failures (the tool's advice for fragmented physical memory).
        self.reboots = 0
        self._alloc_faults = 0

    # ------------------------------------------------------------------
    def _check_loaded(self) -> None:
        if not self.loaded:
            raise NanoBenchError("nanoBench kernel module is not loaded")

    def unload(self) -> None:
        """rmmod: the virtual files disappear."""
        self.loaded = False

    def reboot(self) -> None:
        """Reboot the simulated machine (fresh, unfragmented memory).

        nanoBench's documented remedy for physically-contiguous
        allocation failures: the configuration (options, code, config)
        survives — it lives in the controlling process — while the
        machine comes back with pristine physical memory.
        """
        options = self.nanobench.options
        r14_size = self.nanobench.r14_size
        core = SimulatedCore(self._spec, seed=self._seed)
        self.nanobench = NanoBench(core, kernel_mode=True, options=options)
        if r14_size != self.nanobench.r14_size:
            self.nanobench.resize_r14_buffer(r14_size)
        self.reboots += 1
        self.loaded = True

    def _resize_r14(self, size: int) -> None:
        """Allocate the R14 buffer, healing allocation failures by
        rebooting the simulated machine and retrying (bounded by
        :data:`~repro.core.retry.TRANSIENT_ATTEMPTS`)."""
        def allocate() -> None:
            plan = active_plan()
            if plan is not None:
                self._alloc_faults += 1
                if plan.fires("kernel.alloc",
                              "module:r14#%d" % self._alloc_faults):
                    raise AllocationError(
                        "injected transient contiguous-allocation "
                        "failure (chaos plane)"
                    )
            self.nanobench.resize_r14_buffer(size)

        def warn_and_reboot(attempt: int, exc: BaseException) -> None:
            warnings.warn(MeasurementWarning(
                "allocation of %d contiguous bytes failed (%s); "
                "rebooting the simulated machine and retrying" % (size, exc)
            ))
            self.reboot()

        retry_transient(allocate, on_retry=warn_and_reboot)

    def available_files(self):
        names = sorted(
            list(_INT_FILES) + list(_STR_FILES) + list(_CODE_FILES)
        )
        return [SYS_PREFIX + name for name in names] + [PROC_PATH]

    # ------------------------------------------------------------------
    def write_file(self, path: str, value: Union[str, bytes, int]) -> None:
        """Write a configuration value to a ``/sys/nb/`` virtual file."""
        self._check_loaded()
        if not path.startswith(SYS_PREFIX):
            raise NanoBenchError("not a nanoBench virtual file: %r" % (path,))
        name = path[len(SYS_PREFIX):]
        options = self.nanobench.options
        if name in _INT_FILES:
            field = _INT_FILES[name]
            current = getattr(options, field)
            number = int(value)
            setattr(options, field,
                    bool(number) if isinstance(current, bool) else number)
            options.validate()
        elif name in _STR_FILES:
            setattr(options, _STR_FILES[name], str(value).strip())
            options.validate()
        elif name == "asm":
            self._asm = str(value)
            self._code = None
        elif name == "asm_init":
            self._asm_init = str(value)
            self._code_init = None
        elif name == "code":
            self._code = bytes(value)
            self._asm = ""
        elif name == "code_init":
            self._code_init = bytes(value)
            self._asm_init = ""
        elif name == "config":
            self._config_text = str(value)
        elif name == "r14_size":
            self._resize_r14(int(value))
        elif name == "reset":
            self._asm = self._asm_init = ""
            self._code = self._code_init = None
            self._config_text = None
            self.nanobench.options = NanoBenchOptions()
        else:
            raise NanoBenchError("unknown virtual file: %r" % (path,))

    # ------------------------------------------------------------------
    def read_file(self, path: str) -> str:
        """Read a virtual file; ``/proc/nanoBench`` runs the benchmark."""
        self._check_loaded()
        if path == PROC_PATH:
            return self._run()
        if not path.startswith(SYS_PREFIX):
            raise NanoBenchError("not a nanoBench virtual file: %r" % (path,))
        name = path[len(SYS_PREFIX):]
        options = self.nanobench.options
        if name in _INT_FILES:
            return "%d\n" % int(getattr(options, _INT_FILES[name]))
        if name in _STR_FILES:
            return "%s\n" % getattr(options, _STR_FILES[name])
        if name == "asm":
            return self._asm
        if name == "asm_init":
            return self._asm_init
        if name == "config":
            return self._config_text or ""
        if name == "r14_size":
            return "%d\n" % self.nanobench.r14_size
        raise NanoBenchError("unknown virtual file: %r" % (path,))

    # ------------------------------------------------------------------
    def _run(self) -> str:
        kwargs = {}
        if self._code is not None:
            kwargs["code"] = decode_program(self._code)
        if self._code_init is not None:
            kwargs["init"] = decode_program(self._code_init)
        config = None
        if self._config_text:
            spec = self.nanobench.core.spec
            catalog = event_catalog(spec.family, spec.n_cboxes)
            config = parse_config(self._config_text, catalog)
        results = self.nanobench.run(
            asm=self._asm, asm_init=self._asm_init, config=config, **kwargs
        )
        return format_results(results) + "\n"
