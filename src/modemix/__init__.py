"""modemix: compile unitary matrices onto spatial and internal optical modes.

An arbitrary n_s*n_p x n_s*n_p unitary acting on n_s spatial modes with
n_p internal modes each is factored, by block nulling and cosine-sine
decomposition, into an ordered sequence of balanced beamsplitters on
adjacent spatial mode pairs and unitary operations on the internal modes
of single spatial modes. The compilation is exact: reconstructing the
circuit reproduces the input matrix to numerical precision.
"""

from .circuits import (
    Beamsplitter,
    Circuit,
    CSBlock,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    embed,
    reconstruct,
)
from .costs import CostReport, audit_circuit, cost_report
from .csd import CSDResult, block_partition, cs_matrix, csd
from .decompose import decompose, decompose_stage1, expand_cs_block
from .errors import (
    CircuitFormatError,
    DimensionError,
    MatrixFormatError,
    UnitarityError,
    UnsupportedVersionError,
)
from .linalg import (
    UNITARY_TOL,
    format_matrix,
    haar_random_unitary,
    load_matrix,
    parse_matrix,
    save_matrix,
    unitarity_defect,
)
from .serialization import deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "Beamsplitter",
    "Circuit",
    "CircuitFormatError",
    "CostReport",
    "CSBlock",
    "CSDResult",
    "DimensionError",
    "InternalOp",
    "MatrixFormatError",
    "ModeSpace",
    "PhaseBlock",
    "UNITARY_TOL",
    "UnitarityError",
    "UnsupportedVersionError",
    "audit_circuit",
    "block_partition",
    "cost_report",
    "cs_matrix",
    "csd",
    "decompose",
    "decompose_stage1",
    "deserialize",
    "embed",
    "expand_cs_block",
    "format_matrix",
    "haar_random_unitary",
    "load_matrix",
    "parse_matrix",
    "reconstruct",
    "save_matrix",
    "serialize",
    "unitarity_defect",
]
