"""modemix: compile unitary matrices onto spatial and internal optical modes.

An arbitrary n_s*n_p x n_s*n_p unitary acting on n_s spatial modes with
n_p internal modes each is factored, by iterative cosine-sine
decomposition, into an ordered sequence of balanced beamsplitters on
adjacent spatial mode pairs and unitary operations on the internal modes
of single spatial modes. The compilation is exact: reconstructing the
circuit reproduces the input matrix to numerical precision.
"""

from .circuits import (
    BEAMSPLITTER_2,
    Beamsplitter,
    Circuit,
    CircuitElement,
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
    SVDResult,
    format_matrix,
    haar_random_unitary,
    is_unitary,
    load_matrix,
    parse_matrix,
    save_matrix,
    svd,
    unitarity_defect,
)
from .serialization import FORMAT_VERSION, deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "BEAMSPLITTER_2",
    "Beamsplitter",
    "Circuit",
    "CircuitElement",
    "CircuitFormatError",
    "CostReport",
    "CSBlock",
    "CSDResult",
    "DimensionError",
    "FORMAT_VERSION",
    "InternalOp",
    "MatrixFormatError",
    "ModeSpace",
    "PhaseBlock",
    "SVDResult",
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
    "is_unitary",
    "load_matrix",
    "parse_matrix",
    "reconstruct",
    "save_matrix",
    "serialize",
    "svd",
    "unitarity_defect",
]
