"""Per-video unsupervised action segmentation by kernel mean matching.

A video's frames are summarized by a handful of learned synthetic frames
whose distribution minimizes the squared MMD to the real frame distribution,
measured in a product of a closed-form infinite-network tangent kernel and a
Gaussian kernel; frames are then labeled by their most similar synthetic
frame.
"""

from .baselines import kernel_kmeans_assign, kmeans_segmentation, uniform_segmentation
from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DegenerateScaleError,
    EmptyEvalError,
    KernelSpecError,
    NumericError,
    ParseError,
    ShapeError,
)
from .evaluation import EvalReport, boundary_accuracy, evaluate, f1, hungarian_match, iou, mof
from .kernels import (
    FAMILIES,
    KernelSpec,
    alpha_rescale,
    kernel_grad_b,
    kernel_matrix,
    median_lengthscale,
    ntk_base,
    resolve_spec,
    sphere_project,
)
from .learner import (
    PROFILES,
    Approximation,
    Profile,
    Segmentation,
    TrainConfig,
    assign,
    init_uniform_means,
    segment_video,
    train_approximation,
    uniform_spans,
)
from .mmd import MmdBatchPlan, make_batch_plan, mmd2, mmd2_grad_y
from .numerics import finite_diff_grad, make_rng, median, pairwise_sqdist
from .preprocess import VideoFeatures, l2_normalize_rows, load_features, load_labels, temporal_smooth
from .synthgen import SynthConfig, generate_moving5, generate_video, render_glyph, write_dataset

__version__ = "0.1.0"
