"""Workload definitions shared by the runner and the worker.

Each workload is a list of ``spl`` command-line arguments.  One repetition
("rep") is one ``spl.cli.main`` call.  A run cycles through the workload's
``slots`` seed slots; slot ``k`` of a run with seed ``s`` uses the program
seed ``s * 1000 + k``, so a run's inputs follow from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Acceptance campaign shape (CAMPAIGN_CONFIG of the acceptance tests).
ACCEPTANCE = (
    "--n0", "1:20", "--n1", "2:20", "--gap-left", "-1", "--gap-right", "1",
    "--d", "0.05:0.95", "--outer-radius", "2", "--regime", "mixed", "--v-frac", "0.9",
)
#: Same settings with blocks of at most 2 + 4 rows.
TINY = (
    "--n0", "1:2", "--n1", "2:4", "--gap-left", "-1", "--gap-right", "1",
    "--d", "0.05:0.95", "--outer-radius", "2", "--regime", "mixed", "--v-frac", "0.9",
)
SHARPNESS = (
    "--D", "2", "--d", "0.5", "--v", "0.8", "--n0", "4", "--n1", "6",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "verify" or "sharpness"
    args: tuple[str, ...]
    trials: int = 0       # verify: trials per rep
    parallel: int = 0     # verify: --parallel
    restarts: int = 0     # sharpness: fixed restarts per rep
    iters: int = 0        # sharpness: fixed iterations per restart
    slots: int = 8        # program seeds a run cycles through, one per rep

    @property
    def instances_per_rep(self) -> int:
        """Campaign trials, or sharpness candidate evaluations restarts*(iters+1)."""
        if self.command == "verify":
            return self.trials
        return self.restarts * (self.iters + 1)

    def argv(self, program_seed: int, out: str, parallel: int | None = None) -> list[str]:
        argv = [self.command, *self.args, "--seed", str(program_seed), "--out", out]
        if self.command == "verify":
            par = self.parallel if parallel is None else parallel
            argv += ["--trials", str(self.trials), "--parallel", str(par)]
        else:
            argv += ["--restarts", str(self.restarts), "--iters", str(self.iters)]
        return argv


#: A slot's fastest rep needs several timed reps of that slot.  The
#: acceptance shape's trial cost varies with the drawn sizes, so
#: ``verify_mixed`` spreads 800 trials over 8 slots; ``verify_parallel``,
#: whose reps take twice as long, uses 4 of them; the fixed-size workloads
#: need fewer slots still.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_mixed", "verify", ACCEPTANCE, trials=100),
        Workload("verify_parallel", "verify", ACCEPTANCE, trials=100, parallel=2, slots=4),
        Workload("verify_tiny", "verify", TINY, trials=125, slots=4),
        Workload("sharpness_search", "sharpness", SHARPNESS, restarts=2, iters=200, slots=2),
    )
}


def program_seed(seed: int, slot: int) -> int:
    return seed * 1000 + slot
