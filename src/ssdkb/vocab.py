"""Class and property IRIs of the SSD vocabulary and its autism extension."""

from __future__ import annotations

from .terms import Iri, aut, ssd

# --- classes: study designs ---
SINGLE_SUBJECT_DESIGN = ssd("SingleSubjectDesign")
SIMPLE_DESIGN = ssd("SimpleDesign")
WITHDRAWAL_DESIGN = ssd("WithdrawalDesign")
MULTIPLE_BASELINE_DESIGN = ssd("MultipleBaselineDesign")
ALTERNATING_TREATMENT_DESIGN = ssd("AlternatingTreatmentDesign")
AB_DESIGN = ssd("AB_Design")
ABAB_DESIGN = ssd("ABAB_Design")
ACROSS_OUTCOME_MBD = ssd("AcrossOutcomeMBD")
ACROSS_SETTING_MBD = ssd("AcrossSettingMBD")
ACROSS_SUBJECT_MBD = ssd("AcrossSubjectMBD")

# --- classes: phases ---
PHASE = ssd("Phase")
BASELINE_PHASE = ssd("BaselinePhase")
INTERVENTION_PHASE = ssd("InterventionPhase")
SIMPLE_INTERVENTION_PHASE = ssd("SimpleInterventionPhase")
ALTERNATING_INTERVENTION_PHASE = ssd("AlternatingInterventionPhase")
FOLLOW_UP_PHASE = ssd("FollowUpPhase")

# --- classes: components ---
MBD_ITEM = ssd("MBDItem")
ACROSS_OUTCOME_MBD_ITEM = ssd("AcrossOutcomeMBDItem")
ACROSS_SETTING_MBD_ITEM = ssd("AcrossSettingMBDItem")
ACROSS_SUBJECT_MBD_ITEM = ssd("AcrossSubjectMBDItem")
INTERVENTION_TYPE = ssd("InterventionType")
OUTCOME = ssd("Outcome")
RESULT = ssd("Result")
INSTANT = ssd("Instant")
PARTICIPANT = ssd("Participant")
AGE_DESCRIPTION = ssd("AgeDescription")

# --- autism extension classes ---
PEER_MEDIATED_INTERVENTION = aut("Peer-mediatedIntervention")
COMMUNICATION_OUTCOME = aut("CommunicationOutcome")

# --- properties ---
HAS_PARTICIPANT = ssd("hasParticipant")
HAS_OUTCOME = ssd("hasOutcome")
HAS_PHASE = ssd("hasPhase")
HAS_POSITION = ssd("hasPosition")
HAS_INTERVENTION_TYPE = ssd("hasInterventionType")
HAS_VALUE = ssd("hasValue")
OCCURS_IN = ssd("occursIn")
IS_RESULT_OF_PHASE = ssd("isResultOfPhase")
HAS_CONDITION = ssd("hasCondition")
HAS_GENDER = ssd("hasGender")
HAS_AGE = ssd("hasAge")
DIAGNOSED_AT_AGE = ssd("diagnosedAtAge")
YEARS = ssd("years")
MONTHS = ssd("months")
IN_FORM_OF = ssd("inFormOf")
HAS_SETTING = ssd("hasSetting")
HAS_MBD_ITEM = ssd("hasMBDItem")
HAS_MBD_ITEM_TYPE = ssd("hasMBDItemType")

PROPERTIES: frozenset[Iri] = frozenset(
    {
        HAS_PARTICIPANT,
        HAS_OUTCOME,
        HAS_PHASE,
        HAS_POSITION,
        HAS_INTERVENTION_TYPE,
        HAS_VALUE,
        OCCURS_IN,
        IS_RESULT_OF_PHASE,
        HAS_CONDITION,
        HAS_GENDER,
        HAS_AGE,
        DIAGNOSED_AT_AGE,
        YEARS,
        MONTHS,
        IN_FORM_OF,
        HAS_SETTING,
        HAS_MBD_ITEM,
        HAS_MBD_ITEM_TYPE,
    }
)
