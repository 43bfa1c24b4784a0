"""Synthetic GriPPS application (substrate S9).

The paper's Section 2 characterises the GriPPS protein-motif comparison
application: databanks, motifs, comparison servers, and the two divisibility
experiments of Figure 1.  This subpackage rebuilds all of it from scratch:

* synthetic protein databanks (:mod:`repro.gripps.sequences`),
* PROSITE-like motifs (:mod:`repro.gripps.motifs`),
* an actual motif-scanning engine (:mod:`repro.gripps.matching`),
* the calibrated execution-time model (:mod:`repro.gripps.cost_model`),
* the Figure 1 experimental protocols and the communication study
  (:mod:`repro.gripps.application`),
* platform / request-stream generation for the scheduling experiments
  (:mod:`repro.gripps.platform_gen`).
"""

from .application import (
    CommunicationStudy,
    DivisibilityMeasurement,
    DivisibilityStudy,
    GrippsApplication,
    communication_study,
    motif_divisibility_experiment,
    sequence_divisibility_experiment,
)
from .cost_model import REFERENCE_MODEL, GrippsCostModel
from .matching import MotifMatch, ScanReport, scan_databank, scan_sequence
from .motifs import Motif, MotifElement, MotifSet
from .platform_gen import (
    DEFAULT_DATABANKS,
    DatabankSpec,
    make_gripps_instance,
    make_gripps_platform,
    make_request_stream,
)
from .sequences import AMINO_ACIDS, SequenceDatabank, SequenceRecord

__all__ = [
    "AMINO_ACIDS",
    "CommunicationStudy",
    "DEFAULT_DATABANKS",
    "DatabankSpec",
    "DivisibilityMeasurement",
    "DivisibilityStudy",
    "GrippsApplication",
    "GrippsCostModel",
    "Motif",
    "MotifElement",
    "MotifMatch",
    "MotifSet",
    "REFERENCE_MODEL",
    "ScanReport",
    "SequenceDatabank",
    "SequenceRecord",
    "communication_study",
    "make_gripps_instance",
    "make_gripps_platform",
    "make_request_stream",
    "motif_divisibility_experiment",
    "scan_databank",
    "scan_sequence",
    "sequence_divisibility_experiment",
]
