"""Populations of entities bound to update rules, and tools around them.

The package binds structural and operational descriptions into runnable
systems (ring cellular automata and layered threshold perceptrons), searches
rule spaces, trains networks with the perceptron rule, and round-trips
systems through a text form that can also be compiled to standalone C or
Python programs and checked for bit-exact agreement.
"""
