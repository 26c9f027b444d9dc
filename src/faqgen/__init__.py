"""faqgen: turn a plain-text document into a ranked list of FAQs.

The pipeline chunks the document on sentence boundaries, assigns each chunk
one of 17 content domains, generates question-answer pairs through pluggable
backends (with deterministic offline stubs), and ranks the pairs against
their source context. Dataset builders and review-score aggregation tooling
ship alongside, in ``faqgen.datasets`` and ``faqgen.reviews``.
"""

# The dataset and review modules load with the package: bench/tracing.py
# looks the functions it times up in sys.modules after ``import faqgen``.
from . import datasets, reviews  # noqa: F401
from .chunker import EmptyDocument, SourceDocument
from .gateway import BackendEndpointSet
from .pipeline import FaqResult, PipelineConfig, PipelineWarning, run

__version__ = "0.1.0"

__all__ = [
    "BackendEndpointSet",
    "EmptyDocument",
    "FaqResult",
    "PipelineConfig",
    "PipelineWarning",
    "SourceDocument",
    "__version__",
    "run",
]
