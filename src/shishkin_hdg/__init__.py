"""HDG solver on tensor-product Shishkin meshes for 2D singularly perturbed
convection-diffusion problems, plus a convergence-study harness."""

from .mesh import Region, ShishkinMesh, build_mesh
from .problems import ExactSolution, ProblemSpec, paper_problem
from .assembly import HdgConfig, SolutionFields, assemble_and_solve
from .norms import ErrorReport, convergence_rate, dyadic_rate
from .harness import StudyConfig, run_single, run_sweep

__all__ = [
    "Region",
    "ShishkinMesh",
    "build_mesh",
    "ExactSolution",
    "ProblemSpec",
    "paper_problem",
    "HdgConfig",
    "SolutionFields",
    "assemble_and_solve",
    "ErrorReport",
    "convergence_rate",
    "dyadic_rate",
    "StudyConfig",
    "run_single",
    "run_sweep",
]
