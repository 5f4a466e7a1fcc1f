"""milrank: weakly-supervised video anomaly scoring via multiple-instance ranking.

Videos are bags of temporal segment features with a single video-level
label.  A small fully-connected network learns per-segment anomaly scores
from a max-instance ranking hinge with temporal-smoothness and sparsity
terms; evaluation is frame-level ROC/AUC plus the false-alarm rate on
normal videos.

The package is used through the ``milrank`` command and its modules
(``milrank.features``, ``milrank.optim``, ``milrank.metrics`` ...).  This
file imports nothing, so ``import milrank.cli`` does not load numpy and
``cli`` can still pin the BLAS thread count before numpy first loads.
"""

__version__ = "0.1.0"
